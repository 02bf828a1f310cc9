package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gemm"
)

// queries is a seeded request stream: request i asks for shapes[keys[i]]
// as tenant tenants[i], gaps[i] after request i-1 at unit rate. Phases
// consume it in order from a cursor, wrapping at its end, so every phase
// offers fresh draws of the same distribution.
type queries struct {
	shapes  []gemm.Shape
	keys    []int32
	tenants []uint8
	gaps    []float64
	paths   []string // per shape and tenant: shapes[k], tenant t at k*len(tenantNames)+t
	cursor  int
}

func newQueries(shapes []gemm.Shape, keys []int32, tenants []uint8, gaps []float64) *queries {
	q := &queries{shapes: shapes, keys: keys, tenants: tenants, gaps: gaps}
	for _, s := range shapes {
		for _, t := range tenantNames {
			q.paths = append(q.paths, fmt.Sprintf("/query?m=%d&n=%d&k=%d&prim=AR&tenant=%s", s.M, s.N, s.K, t))
		}
	}
	return q
}

func (q *queries) path(i int) string {
	return q.paths[int(q.keys[i])*len(tenantNames)+int(q.tenants[i])]
}

// phase is what one generator phase measured. Latencies are in ms from the
// request's release; a failed request reads +Inf, so it misses any limit.
// Lag is how late the generator released requests against their schedule.
type phase struct {
	rate         float64 // offered req/s; 0 for a closed loop
	p50, p99     float64
	lag50, lag99 float64
	attempted    int
	failed       int
	backlog      int // released requests still waiting for a connection when the last was released
	elapsed      time.Duration
	// p50s and rates hold, per whole window of a closed loop, the p50
	// latency of the requests completed in it and their number per second.
	p50s, rates []float64
}

// window is the span over which a closed query phase computes one figure.
// It holds thousands of requests, and a run holds dozens of windows, so a
// host stall of a few seconds moves only a few of them.
const window = 500 * time.Millisecond

// summarize fills the percentiles from the per-request samples, which the
// phase does not keep.
func (p *phase) summarize(lat, lag []float64) {
	p.p50, p.p99 = percentile(lat, 50), percentile(lat, 99)
	p.lag50, p.lag99 = percentile(lag, 50), percentile(lag, 99)
}

// perWindow groups samples xs by the window their time at (ns since the
// phase started; negative for none) falls in, over the whole windows of a
// phase of length d, and reduces each non-empty group with f.
func perWindow(at []int64, xs []float64, d time.Duration, f func([]float64) float64) []float64 {
	groups := make([][]float64, int(d/window))
	for i, t := range at {
		if k := int(t / int64(window)); t >= 0 && k < len(groups) {
			groups[k] = append(groups[k], xs[i])
		}
	}
	var out []float64
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, f(g))
		}
	}
	return out
}

// reply is one distinct /query reply body for one shape.
type reply struct {
	key   int32
	body  []byte
	count int
}

// loadgen drives the router over at most GOMAXPROCS connections, one per
// worker.
type loadgen struct {
	base      string
	hc        *http.Client
	transport *http.Transport
	workers   int
	tr        *tracer

	mu      sync.Mutex
	replies map[uint64]*reply // by hash of (key, body)
	tuned   map[int32]bool    // keys that have received a freshly tuned answer
	// retunes counts tuned answers for keys that had been tuned before in
	// this process; tunedAnswers counts every tuned answer.
	retunes, tunedAnswers int
}

func newLoadgen(base string, tr *tracer) *loadgen {
	workers := runtime.GOMAXPROCS(0)
	t := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	return &loadgen{
		base:      base,
		hc:        &http.Client{Timeout: 30 * time.Second, Transport: t},
		transport: t,
		workers:   workers,
		tr:        tr,
		replies:   make(map[uint64]*reply),
		tuned:     make(map[int32]bool),
	}
}

func (g *loadgen) close() { g.transport.CloseIdleConnections() }

var tunedMarker = []byte(`"source": "tuned"`)

// do sends request i and reports whether it succeeded. released is when the
// generator released it, for the traced root span.
func (g *loadgen) do(ctx context.Context, q *queries, i int, buf *bytes.Buffer, released time.Time) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+q.path(i), nil)
	if err != nil {
		return false
	}
	traced := g.tr != nil && g.tr.on.Load()
	var id uint64
	if traced {
		id = g.tr.newID()
		req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		req.Header.Set(hdrReq, strconv.FormatUint(id, 10))
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		g.tr.record(span{id: id, req: id, start: g.tr.at(released), end: g.tr.now(), kind: spanRequest})
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	g.note(q.keys[i], buf.Bytes())
	return true
}

// note keeps each distinct reply for the correctness check and counts
// freshly tuned answers.
func (g *loadgen) note(key int32, body []byte) {
	h := fnv.New64a()
	h.Write([]byte{byte(key), byte(key >> 8), byte(key >> 16)})
	h.Write(body)
	sum := h.Sum64()
	tuned := bytes.Contains(body, tunedMarker)
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.replies[sum]; ok {
		r.count++
	} else {
		g.replies[sum] = &reply{key: key, body: bytes.Clone(body), count: 1}
	}
	if tuned {
		g.tunedAnswers++
		if g.tuned[key] {
			g.retunes++
		}
		g.tuned[key] = true
	}
}

// open offers q's next requests as a Poisson process at rate req/s for
// dur. The dispatcher sleeps until the next request is due and, on
// each wake, releases every request already due; workers time each from
// its release, so waiting for a busy connection counts and the host's
// timer lateness does not (it is reported as lag instead).
func (g *loadgen) open(ctx context.Context, q *queries, rate float64, dur time.Duration) *phase {
	first := q.cursor
	var due []int64
	for acc := 0.0; ; {
		acc += q.gaps[(first+len(due))%len(q.gaps)] / rate
		if acc >= dur.Seconds() {
			break
		}
		due = append(due, int64(acc*1e9))
	}
	n := len(due)
	q.cursor = (first + n) % len(q.keys)
	p := &phase{rate: rate, attempted: n}
	lat, lag := make([]float64, n), make([]float64, n)
	release := make([]int64, n)
	queue := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for i := range queue {
				ok := g.do(ctx, q, (first+i)%len(q.keys), buf, start.Add(time.Duration(release[i])))
				done := int64(time.Since(start))
				lat[i] = float64(done-release[i]) / 1e6
				if !ok {
					lat[i] = math.Inf(1)
					failed.Add(1)
				}
			}
		}()
	}
	for i := 0; i < n; {
		now := int64(time.Since(start))
		for i < n && due[i] <= now {
			release[i] = now
			lag[i] = float64(now-due[i]) / 1e6
			queue <- i
			i++
		}
		if i < n {
			time.Sleep(time.Duration(due[i] - now))
		} else {
			p.backlog = len(queue)
		}
	}
	close(queue)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.failed = int(failed.Load())
	p.summarize(lat, lag)
	return p
}

// closed sends the next n requests of q back to back over the given number
// of connections, at most the generator's (each waits for its reply
// before sending the next), and stops early at dur.
func (g *loadgen) closed(ctx context.Context, q *queries, n, workers int, dur time.Duration) *phase {
	first := q.cursor
	p := &phase{}
	lat := make([]float64, n)
	fin := make([]int64, n) // completion time of each successful request
	var next, failed atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < min(workers, g.workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for time.Since(start) < dur {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				t0 := time.Now()
				if !g.do(ctx, q, (first+i)%len(q.keys), buf, t0) {
					failed.Add(1)
					lat[i] = math.Inf(1)
					fin[i] = -1
					continue
				}
				lat[i] = ms(time.Since(t0))
				fin[i] = int64(time.Since(start))
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.attempted = min(int(next.Load())+1, n)
	q.cursor = (first + p.attempted) % len(q.keys)
	p.failed = int(failed.Load())
	p.summarize(lat[:p.attempted], nil)
	whole := min(dur, p.elapsed)
	p.p50s = perWindow(fin[:p.attempted], lat, whole, func(g []float64) float64 { return percentile(g, 50) })
	p.rates = perWindow(fin[:p.attempted], lat, whole, func(g []float64) float64 { return float64(len(g)) / window.Seconds() })
	return p
}
