package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRequest     spanKind = iota + 1 // generator: release to reply read
	spanRouteQuery                      // router /query handler
	spanClientQuery                     // shard.Client.Query on the router's client
	spanServeQuery                      // replica /query handler
	spanStream                          // shard.Coordinator.Stream
	spanChunk                           // shard.Client.Sweep (one dispatched chunk)
	spanServeSweep                      // replica /sweep handler
)

// Span flags.
const (
	flagDES uint8 = 1 << iota // a chunk whose items execute at DES fidelity
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the id of the span whose call caused this one.
type span struct {
	id, parent, req uint64
	start, end      int64 // ns since the tracer's epoch
	kind            spanKind
	flags           uint8
	items           int32
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer keeps spans in a buffer preallocated before the traced pass, so
// recording is an atomic slot claim and a store; spans past the capacity
// are counted as dropped rather than grown into.
type tracer struct {
	// on gates recording: wrappers stay installed for a whole traced run
	// and pass straight through while it is off, so the run's untraced
	// half measures the same fleet.
	on      atomic.Bool
	epoch   time.Time
	ids     atomic.Uint64
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64
	// wireBytes counts response bytes read from replica /sweep replies.
	wireBytes atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64            { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64         { return t.ids.Add(1) }
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) record(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// recorded returns the spans recorded so far. Call it only after every
// traced call has returned.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// reset forgets every recorded span, keeping the buffer.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
	t.wireBytes.Store(0)
}

// Span ids cross the HTTP hop in these headers.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

type spanCtxKey struct{}

type spanRef struct{ id, req uint64 }

func withSpan(ctx context.Context, id, req uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// handler wraps an HTTP handler: the span's parent and request id arrive in
// the headers the caller's transport set, and the span id rides the request
// context into whatever the handler calls.
func (t *tracer) handler(h http.Handler, query, sweep spanKind) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		kind := query
		if r.URL.Path == "/sweep" {
			kind = sweep
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		id := t.newID()
		start := t.now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
		t.record(span{id: id, parent: parent, req: req, start: start, end: t.now(), kind: kind})
	})
}

// transport carries the calling span across the hop in headers and counts
// the bytes of /sweep replies.
type transport struct {
	t     *tracer
	inner http.RoundTripper
}

func (tr transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tr.t.on.Load() {
		return tr.inner.RoundTrip(r)
	}
	ref := spanFrom(r.Context())
	r = r.Clone(r.Context())
	r.Header.Set(hdrSpan, strconv.FormatUint(ref.id, 10))
	r.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	resp, err := tr.inner.RoundTrip(r)
	if err == nil && r.URL.Path == "/sweep" {
		resp.Body = countingBody{resp.Body, &tr.t.wireBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// client wraps one of the router's shard.Clients.
type client struct {
	t     *tracer
	inner shard.Client
}

func (c client) Query(ctx context.Context, q serve.Query) (serve.Answer, error) {
	if !c.t.on.Load() {
		return c.inner.Query(ctx, q)
	}
	ref := spanFrom(ctx)
	id := c.t.newID()
	start := c.t.now()
	ans, err := c.inner.Query(withSpan(ctx, id, ref.req), q)
	c.t.record(span{id: id, parent: ref.id, req: ref.req, start: start, end: c.t.now(), kind: spanClientQuery})
	return ans, err
}

func (c client) Sweep(ctx context.Context, req serve.SweepRequest, sink serve.SweepSink) error {
	if !c.t.on.Load() {
		return c.inner.Sweep(ctx, req, sink)
	}
	ref := spanFrom(ctx)
	id := c.t.newID()
	var flags uint8
	if len(req.Items) > 0 && req.Items[0].Fidelity == serve.FidelityDES {
		flags = flagDES
	}
	start := c.t.now()
	err := c.inner.Sweep(withSpan(ctx, id, ref.req), req, sink)
	c.t.record(span{id: id, parent: ref.id, req: ref.req, start: start, end: c.t.now(), kind: spanChunk, flags: flags, items: int32(len(req.Items))})
	return err
}

func (c client) Stats(ctx context.Context) (serve.Stats, error) { return c.inner.Stats(ctx) }
func (c client) Healthz(ctx context.Context) error              { return c.inner.Healthz(ctx) }

// stream wraps Coordinator.Stream; a nil or idle tracer calls it directly.
func (t *tracer) stream(ctx context.Context, co *shard.Coordinator, items []serve.SweepItem, sink shard.StreamSink) error {
	if t == nil || !t.on.Load() {
		return co.Stream(ctx, items, sink)
	}
	id := t.newID()
	start := t.now()
	err := co.Stream(withSpan(ctx, id, id), items, sink)
	t.record(span{id: id, req: id, start: start, end: t.now(), kind: spanStream, items: int32(len(items))})
	return err
}

// spanStats is what the analysis of one traced pass yields: per-kind
// durations and self times in ns, and each sweep's fidelity phases.
type spanStats struct {
	dur, self map[spanKind][]float64
	streams   []streamStats
}

// streamStats splits one Coordinator.Stream into its tiers: the interval
// from the first chunk of a tier starting to the last one ending.
type streamStats struct {
	analytic, des   interval
	items, desItems int
}

func analyze(spans []span) spanStats {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s.interval())
		}
	}
	st := spanStats{dur: make(map[spanKind][]float64), self: make(map[spanKind][]float64)}
	streams := make(map[uint64]*streamStats)
	for _, s := range spans {
		st.dur[s.kind] = append(st.dur[s.kind], float64(s.end-s.start))
		st.self[s.kind] = append(st.self[s.kind], float64(selfTime(s.interval(), children[s.id])))
		if s.kind == spanStream {
			streams[s.id] = &streamStats{items: int(s.items)}
		}
	}
	for _, s := range spans {
		ss := streams[s.parent]
		if s.kind != spanChunk || ss == nil {
			continue
		}
		tier := &ss.analytic
		if s.flags&flagDES != 0 {
			tier = &ss.des
			ss.desItems += int(s.items)
		}
		if tier.hi == 0 {
			*tier = s.interval()
		}
		tier.lo, tier.hi = min(tier.lo, s.start), max(tier.hi, s.end)
	}
	for _, s := range spans {
		if ss := streams[s.id]; ss != nil && s.kind == spanStream {
			st.streams = append(st.streams, *ss)
		}
	}
	return st
}
