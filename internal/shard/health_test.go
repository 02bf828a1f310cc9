package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/serve"
)

// stubClient is a scriptable Client for health/dispatch tests; nil hooks
// fall back to benign defaults.
type stubClient struct {
	query   func(serve.Query) (serve.Answer, error)
	sweep   func(serve.SweepRequest) ([]serve.SweepResult, error)
	healthz func() error
}

func (c *stubClient) Query(_ context.Context, q serve.Query) (serve.Answer, error) {
	if c.query == nil {
		return serve.Answer{}, errors.New("stub: no query hook")
	}
	return c.query(q)
}

// Sweep adapts the buffered scripting hook to the streaming interface:
// whatever prefix the hook returns is delivered through the sink before the
// hook's error — exactly the salvage semantics a real replica streams.
func (c *stubClient) Sweep(_ context.Context, req serve.SweepRequest, sink serve.SweepSink) error {
	if c.sweep == nil {
		return errors.New("stub: no sweep hook")
	}
	res, err := c.sweep(req)
	for i, r := range res {
		if serr := sink(i, r); serr != nil {
			return serr
		}
	}
	return err
}

func (c *stubClient) Stats(context.Context) (serve.Stats, error) { return serve.Stats{}, nil }

func (c *stubClient) Healthz(context.Context) error {
	if c.healthz == nil {
		return nil
	}
	return c.healthz()
}

// collectClient buffers a streaming client's sweep back into the slice form
// the scripting hooks speak. Flat chunks emit in ascending order, so the
// append preserves chunk-local indexing.
func collectClient(c Client, req serve.SweepRequest) ([]serve.SweepResult, error) {
	var res []serve.SweepResult
	err := c.Sweep(context.Background(), req, func(_ int, r serve.SweepResult) error {
		res = append(res, r)
		return nil
	})
	return res, err
}

// The health state machine: failures bench a replica for the cooldown, the
// first caller after the window claims a single trial slot (suspect), and
// only a reported success re-admits. This is what caps a degraded fleet's
// cost at one probe timeout per replica per cooldown window.
func TestHealthStateMachine(t *testing.T) {
	h := NewHealth(2)
	h.SetCooldown(time.Minute)
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }

	if !h.Allow(0) || h.State(0) != Healthy {
		t.Fatal("fresh replica not admissible")
	}
	h.MarkFailed(0)
	if h.State(0) != Dead {
		t.Fatalf("state after failure = %v, want dead", h.State(0))
	}
	if h.Allow(0) {
		t.Fatal("dead replica admitted inside its cooldown")
	}
	if h.Skips() != 1 {
		t.Fatalf("skips = %d, want 1", h.Skips())
	}
	// Replica 1 is unaffected by replica 0's state.
	if !h.Allow(1) {
		t.Fatal("healthy neighbor of a dead replica not admissible")
	}

	// Cooldown elapses: exactly one trial slot per window.
	now = now.Add(time.Minute + time.Second)
	if !h.Allow(0) {
		t.Fatal("cooled-down replica not granted a trial")
	}
	if h.State(0) != Suspect {
		t.Fatalf("state during trial = %v, want suspect", h.State(0))
	}
	if h.Allow(0) {
		t.Fatal("second caller admitted while a trial is in flight")
	}

	// A failed trial benches it for a fresh window.
	h.MarkFailed(0)
	if h.Allow(0) {
		t.Fatal("replica admitted right after a failed trial")
	}
	now = now.Add(time.Minute + time.Second)
	if !h.Allow(0) {
		t.Fatal("replica not granted a trial after the refreshed cooldown")
	}
	h.MarkHealthy(0)
	if h.State(0) != Healthy || !h.Allow(0) {
		t.Fatal("successful trial did not re-admit the replica")
	}
	if h.Readmissions() != 1 {
		t.Fatalf("readmissions = %d, want 1", h.Readmissions())
	}
	// Repeated successes on a healthy replica are not re-admissions.
	h.MarkHealthy(0)
	if h.Readmissions() != 1 {
		t.Fatalf("readmissions after healthy no-op = %d, want 1", h.Readmissions())
	}
}

// The wall-clock regression the PR fixes: sweeping a fleet with one
// pre-dead replica must pay ~one probe timeout total, not one per chunk.
// The dead replica's stub instruments the cost — every call burns `delay`
// — so the call count is exactly the number of probe timeouts paid.
func TestSweepOverPreDeadReplicaPaysOneProbeTimeout(t *testing.T) {
	items := coordItems()
	refJSON := coordReference(t, items)
	part := NewPartitioner(2)
	counts := make([]int, 2)
	for _, it := range items {
		counts[part.Owner(it.Shape())]++
	}
	dead := 0
	if counts[1] > counts[0] {
		dead = 1 // kill the shard owning more items: more chunks at risk
	}
	if counts[dead] < 2 {
		t.Fatalf("shard %d owns %d quick-grid shapes; need >= 2 chunks", dead, counts[dead])
	}

	const delay = 150 * time.Millisecond
	var deadCalls atomic.Int64
	deadStub := &stubClient{
		sweep: func(serve.SweepRequest) ([]serve.SweepResult, error) {
			deadCalls.Add(1)
			time.Sleep(delay) // the instrumented "client timeout"
			return nil, errors.New("stub: replica is down")
		},
		healthz: func() error { return errors.New("stub: replica is down") },
	}
	healthy, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]Client, 2)
	clients[dead] = deadStub
	clients[1-dead] = &LocalClient{Svc: healthy}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}

	co := NewCoordinator(r)
	co.Spec.Chunk = 1 // one chunk per item: every owned item is a chance to stall
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatalf("sweep with a pre-dead replica: %v", err)
	}
	if got := deadCalls.Load(); got != 1 {
		t.Fatalf("dead replica probed %d times (%v of stall), want exactly 1 probe timeout total", got, time.Duration(got)*delay)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("degraded merge diverges from single-process engine.Batch")
	}
	// Every chunk the dead shard owned ran on the healthy replica: its
	// first, and whichever later ones the dead shard's worker sent, failed
	// over; the healthy replica took the rest from the tail.
	if got := int(co.Redispatches() + co.Taken()); got != counts[dead] || co.Redispatches() == 0 {
		t.Fatalf("%d re-dispatches + %d taken chunks, want %d (every chunk the dead shard owned, its first re-dispatched)",
			co.Redispatches(), co.Taken(), counts[dead])
	}
	if r.Health().State(dead) != Dead {
		t.Fatalf("dead replica state = %v after the sweep", r.Health().State(dead))
	}
	// Each re-dispatch after the probe skipped the dead replica instead
	// of paying another timeout.
	if got, want := r.Health().Skips(), co.Redispatches()-1; got != want {
		t.Fatalf("health plane skipped %d attempts, want %d (one per re-dispatch after the probe)", got, want)
	}
}

// Routed queries obey the same plane: after a dead replica burns its one
// probe, later queries for its shapes skip straight to the failover
// replica without another timeout.
func TestRouterQuerySkipsKnownDeadReplica(t *testing.T) {
	shape := quickGridShapes()[0]
	owner := NewPartitioner(2).Owner(shape)
	var deadCalls atomic.Int64
	deadStub := &stubClient{
		query: func(serve.Query) (serve.Answer, error) {
			deadCalls.Add(1)
			return serve.Answer{}, errors.New("stub: replica is down")
		},
	}
	healthy, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]Client, 2)
	clients[owner] = deadStub
	clients[1-owner] = &LocalClient{Svc: healthy}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ans, err := r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if ans.Replica == owner {
			t.Fatalf("query %d attributed to the dead owner", i)
		}
	}
	if got := deadCalls.Load(); got != 1 {
		t.Fatalf("dead owner probed %d times across 5 queries, want 1", got)
	}
}

// A routed query never waits: with every replica benched inside a long
// cooldown — one of them suspect because another caller holds its trial —
// the query fails at once with the benched-fleet error and calls no
// client. (A sweep chunk waits for that trial instead.)
func TestRouterQueryFailsFastWhenFleetIsBenched(t *testing.T) {
	var calls atomic.Int64
	counting := func() *stubClient {
		return &stubClient{query: func(serve.Query) (serve.Answer, error) {
			calls.Add(1)
			return serve.Answer{}, nil
		}}
	}
	r, err := NewRouter([]Client{counting(), counting()})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Health()
	h.SetCooldown(time.Hour)
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }
	h.MarkFailed(0)
	now = now.Add(time.Hour)
	if !h.Allow(0) { // another caller claims replica 0's trial
		t.Fatal("cooled-down replica not granted a trial")
	}
	h.MarkFailed(1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = r.Query(ctx, serve.Query{Shape: quickGridShapes()[0], Prim: hw.AllReduce})
	if err == nil || !strings.Contains(err.Error(), "marked dead") {
		t.Fatalf("query over a benched fleet = %v, want the marked-dead error at once", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("benched replicas called %d times", n)
	}
	if h.State(0) != Suspect || h.State(1) != Dead {
		t.Fatalf("states %v, want [suspect dead] untouched", h.States())
	}
}

// streamStub is a Client whose Sweep hook drives the sink directly, for
// replies no real replica sends.
type streamStub struct {
	stubClient
	stream func(req serve.SweepRequest, sink serve.SweepSink) error
}

func (c *streamStub) Sweep(_ context.Context, req serve.SweepRequest, sink serve.SweepSink) error {
	return c.stream(req, sink)
}

// A malformed reply — an index past the chunk, an index twice, or a clean
// end short of the chunk — stops the chunk's dispatch at once: the replica
// answered, so it stays healthy and the chunk is not retried elsewhere; the
// sweep fails at the chunk's first item naming the replica, and nothing of
// that chunk is emitted. The other replica is dead with its cooldown over:
// it takes no chunk, since it is not Healthy, but a failover would reach
// it with a trial.
func TestDispatchStopsOnMalformedReply(t *testing.T) {
	part := NewPartitioner(2)
	var shape serve.SweepItem
	for _, s := range quickGridShapes() {
		if part.Owner(s) == 0 {
			shape = serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"}
			break
		}
	}
	if shape.M == 0 {
		t.Fatal("shard 0 owns no quick-grid shapes")
	}
	items := []serve.SweepItem{shape, shape, shape, shape} // chunks {0,1} and {2,3}
	for _, tc := range []struct {
		name  string
		reply func(n int, sink serve.SweepSink) error
	}{
		{"index past the chunk", func(n int, sink serve.SweepSink) error {
			if err := sink(0, serve.SweepResult{}); err != nil {
				return err
			}
			return sink(n, serve.SweepResult{})
		}},
		{"index twice", func(n int, sink serve.SweepSink) error {
			if err := sink(0, serve.SweepResult{}); err != nil {
				return err
			}
			return sink(0, serve.SweepResult{})
		}},
		{"short clean end", func(n int, sink serve.SweepSink) error {
			return sink(0, serve.SweepResult{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var chunks atomic.Int64
			owner := &streamStub{stream: func(req serve.SweepRequest, sink serve.SweepSink) error {
				if chunks.Add(1) == 1 { // the first chunk is answered whole
					for j := range req.Items {
						if err := sink(j, serve.SweepResult{}); err != nil {
							return err
						}
					}
					return nil
				}
				return tc.reply(len(req.Items), sink)
			}}
			var otherCalls atomic.Int64
			other := &stubClient{sweep: func(serve.SweepRequest) ([]serve.SweepResult, error) {
				otherCalls.Add(1)
				return nil, errors.New("stub: must not be called")
			}}
			r, err := NewRouter([]Client{owner, other})
			if err != nil {
				t.Fatal(err)
			}
			h := r.Health()
			h.SetCooldown(time.Hour) // the sweep's prober never ticks
			now := time.Unix(1000, 0)
			h.now = func() time.Time { return now }
			h.MarkFailed(1)
			now = now.Add(time.Hour)
			co := NewCoordinator(r)
			co.Spec.Chunk = 2
			var emitted []int
			err = co.Stream(context.Background(), items, func(i int, _ SweepResult) error {
				emitted = append(emitted, i)
				return nil
			})
			if err == nil {
				t.Fatal("malformed reply accepted")
			}
			if !strings.Contains(err.Error(), "sweep item 2:") || !strings.Contains(err.Error(), "replica 0") {
				t.Fatalf("error %q does not name sweep item 2 and replica 0", err)
			}
			if got := r.Health().State(0); got != Healthy {
				t.Fatalf("malformed replica = %v, want healthy (it answered)", got)
			}
			if n := otherCalls.Load(); n != 0 {
				t.Fatalf("other replica called %d times; a malformed reply must not fail over", n)
			}
			if got := h.State(1); got != Dead {
				t.Fatalf("other replica = %v, want dead with no trial claimed", got)
			}
			if len(emitted) != 2 || emitted[0] != 0 || emitted[1] != 1 {
				t.Fatalf("emitted %v, want only the first chunk [0 1]", emitted)
			}
		})
	}
}

// Probe re-admission respects the cooldown: a zombie replica whose
// /healthz answers while its work path keeps failing must not oscillate
// dead -> healthy faster than once per window — that would burn one
// dispatch attempt per probe interval instead of per cooldown.
func TestProbeRespectsCooldownForZombies(t *testing.T) {
	zombie := &stubClient{} // nil healthz hook: /healthz always answers ok
	r, err := NewRouter([]Client{zombie, &stubClient{}})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Health()
	h.SetCooldown(time.Minute)
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }

	h.MarkFailed(0)
	if n := r.Probe(context.Background()); n != 0 {
		t.Fatalf("freshly dead zombie re-admitted (%d replicas) before its cooldown", n)
	}
	if h.State(0) != Dead {
		t.Fatalf("state after rejected probe = %v, want dead", h.State(0))
	}
	now = now.Add(time.Minute + time.Second)
	if n := r.Probe(context.Background()); n != 1 {
		t.Fatalf("cooled-down replica not re-admitted by the probe (%d replicas)", n)
	}
	if h.State(0) != Healthy {
		t.Fatalf("state after due probe = %v, want healthy", h.State(0))
	}
}

// The background prober is shared and refcounted: the first of two
// concurrent holders stopping must not strip the survivor of its mid-sweep
// re-admission probes; only the last stop ends the goroutine.
func TestProberSurvivesUntilLastHolderStops(t *testing.T) {
	var probes atomic.Int64
	dead := &stubClient{healthz: func() error {
		probes.Add(1)
		return errors.New("stub: replica is down")
	}}
	r, err := NewRouter([]Client{dead, &stubClient{}})
	if err != nil {
		t.Fatal(err)
	}
	r.Health().SetCooldown(time.Millisecond) // trial-due almost immediately
	r.Health().MarkFailed(0)                 // give the prober something to probe
	stop1 := r.StartProber(context.Background(), 5*time.Millisecond)
	stop2 := r.StartProber(context.Background(), 5*time.Millisecond)
	stop1()
	before := probes.Load()
	deadline := time.Now().Add(2 * time.Second)
	for probes.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("prober died with the first holder's stop; the second sweep lost re-admission")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop2()
	time.Sleep(30 * time.Millisecond) // drain any in-flight tick
	final := probes.Load()
	time.Sleep(50 * time.Millisecond)
	if got := probes.Load(); got != final {
		t.Fatalf("prober still probing after the last stop (%d -> %d)", final, got)
	}
}

// An attempt budget beyond the fleet size opts into wrap-around retries: a
// dispatch that finds the whole ring inside its cooldown (one replica dead,
// the other hit by a transient blip) must wait the cooldown out and retry
// instead of aborting with most of its budget unspent — the sweep survives
// the blip.
func TestDispatchWaitsOutCooldownWhenBudgetExceedsFleet(t *testing.T) {
	part := NewPartitioner(2)
	var owned []serve.SweepItem
	for _, s := range quickGridShapes() {
		if part.Owner(s) == 0 {
			owned = append(owned, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
		}
	}
	if len(owned) == 0 {
		t.Fatal("shard 0 owns no quick-grid shapes")
	}
	refJSON := coordReference(t, owned)

	dead := &stubClient{
		sweep: func(serve.SweepRequest) ([]serve.SweepResult, error) {
			return nil, errors.New("stub: replica is down")
		},
		healthz: func() error { return errors.New("stub: replica is down") },
	}
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	inner := &LocalClient{Svc: svc}
	var blipped atomic.Bool
	flaky := &stubClient{
		sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			if blipped.CompareAndSwap(false, true) {
				return nil, errors.New("stub: transient failure")
			}
			return collectClient(inner, req)
		},
	}
	r, err := NewRouter([]Client{dead, flaky})
	if err != nil {
		t.Fatal(err)
	}
	r.Health().SetCooldown(30 * time.Millisecond)
	co := NewCoordinator(r)
	co.Spec.Chunk = len(owned) // a single chunk owned by the dead replica
	co.Spec.Attempts = 6       // > fleet size: opt into wrap-around retries

	results, err := co.Sweep(context.Background(), owned)
	if err != nil {
		t.Fatalf("sweep across a transient blip with budget > fleet size: %v", err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("merge diverges from single-process engine.Batch after the waited retry")
	}
	for i, res := range results {
		if res.Replica != 1 {
			t.Fatalf("item %d answered by replica %d, want the recovered flaky replica 1", i, res.Replica)
		}
	}
	if co.Redispatches() != 1 {
		t.Fatalf("redispatches = %d, want 1", co.Redispatches())
	}
}

// A deterministic structured 5xx (a "poison" query every replica fails
// identically) must not bench the fleet: the replicas answered, and
// marking them dead would black out all routed traffic for a cooldown.
func TestPoisonQueryDoesNotBenchFleet(t *testing.T) {
	shape := quickGridShapes()[0]
	poison := func() *stubClient {
		return &stubClient{query: func(serve.Query) (serve.Answer, error) {
			return serve.Answer{}, &ReplyError{Status: 500, Err: errors.New("stub: deterministic internal failure")}
		}}
	}
	r, err := NewRouter([]Client{poison(), poison()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce})
		if err == nil {
			t.Fatal("poison query succeeded")
		}
		if strings.Contains(err.Error(), "marked dead") {
			t.Fatalf("query %d hit the benched-fleet fast-fail: %v (answered 5xx errors benched the fleet)", i, err)
		}
	}
	for k := 0; k < 2; k++ {
		if got := r.Health().State(k); got != Healthy {
			t.Fatalf("replica %d = %v after answered 5xx failures, want healthy", k, got)
		}
	}
}

// A trial request answered with a deterministic 4xx proves the replica is
// alive: the suspect trial must resolve healthy, not leave the replica
// benched for another cooldown (where a stream of malformed queries could
// keep a recovered replica out of rotation indefinitely).
func TestBadQueryTrialResolvesSuspectHealthy(t *testing.T) {
	shape := quickGridShapes()[0]
	owner := NewPartitioner(2).Owner(shape)
	rejecting := &stubClient{query: func(serve.Query) (serve.Answer, error) {
		return serve.Answer{}, &QueryError{Err: errors.New("stub: bad query")}
	}}
	clients := make([]Client, 2)
	clients[owner] = rejecting
	clients[1-owner] = &stubClient{}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	r.Health().SetCooldown(20 * time.Millisecond)
	r.Health().MarkFailed(owner)
	time.Sleep(30 * time.Millisecond) // cooldown elapses: next request is the trial
	if _, err := r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce}); err == nil {
		t.Fatal("rejected query accepted")
	}
	if got := r.Health().State(owner); got != Healthy {
		t.Fatalf("owner state after a 4xx trial = %v, want healthy (the replica answered)", got)
	}
}

// Partial-chunk completion: a chunk that fails at item i keeps the
// completed prefix results[0..i) and re-dispatches only the unanswered
// suffix — the failover replica must never re-execute salvaged work, and
// the merge must stay byte-identical to the single-process reference.
func TestCoordinatorSalvagesPartialChunk(t *testing.T) {
	part := NewPartitioner(2)
	var owned []serve.SweepItem
	for _, s := range quickGridShapes() {
		if part.Owner(s) == 0 {
			owned = append(owned, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
		}
	}
	if len(owned) == 0 {
		t.Fatal("shard 0 owns no quick-grid shapes")
	}
	// One four-item chunk, all owned by shard 0.
	items := []serve.SweepItem{owned[0], owned[len(owned)-1], owned[0], owned[len(owned)-1]}
	refJSON := coordReference(t, items)

	newSvc := func() *serve.Service {
		svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	// Replica 0 computes the whole chunk but "crashes" after item 2,
	// reporting the completed prefix alongside the ChunkError — the shape
	// of a 5xx /sweep reply naming the failing item.
	inner0 := &LocalClient{Svc: newSvc()}
	crashing := &stubClient{
		sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			res, err := collectClient(inner0, req)
			if err != nil {
				return res, err
			}
			return res[:2], &serve.ChunkError{Index: 2, Err: errors.New("injected crash after item 2")}
		},
	}
	// Replica 1 records what it is asked to execute.
	inner1 := &LocalClient{Svc: newSvc()}
	var mu sync.Mutex
	var suffixCalls [][]int
	recording := &stubClient{
		sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			mu.Lock()
			sizes := []int{len(req.Items)}
			suffixCalls = append(suffixCalls, sizes)
			mu.Unlock()
			return collectClient(inner1, req)
		},
	}
	r, err := NewRouter([]Client{crashing, recording})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	co.Spec.Chunk = len(items)
	var segments []ChunkResult
	co.OnChunk = func(cr ChunkResult) {
		mu.Lock()
		segments = append(segments, cr)
		mu.Unlock()
	}

	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatalf("sweep with a partial chunk failure: %v", err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("salvaged merge diverges from single-process engine.Batch")
	}
	for i, res := range results {
		want := 0
		if i >= 2 {
			want = 1 // suffix re-dispatched to the failover replica
		}
		if res.Replica != want {
			t.Fatalf("item %d attributed to replica %d, want %d", i, res.Replica, want)
		}
	}
	if got := co.PartialSalvages(); got != 2 {
		t.Fatalf("salvaged %d items, want 2", got)
	}
	if co.Redispatches() != 1 {
		t.Fatalf("redispatches = %d, want 1 (one chunk left its owner)", co.Redispatches())
	}
	// Each replica is credited with the items it answered: the owner's
	// salvaged prefix and the failover suffix.
	for k, rs := range r.Stats(context.Background()).PerShard {
		if rs.RoutedSweepItems != 2 {
			t.Fatalf("replica %d credited with %d sweep items, want 2", k, rs.RoutedSweepItems)
		}
	}
	if len(suffixCalls) != 1 || suffixCalls[0][0] != 2 {
		t.Fatalf("failover replica saw calls %v, want exactly one 2-item suffix", suffixCalls)
	}
	if len(segments) != 2 || len(segments[0].Indices) != 2 || len(segments[1].Indices) != 2 ||
		segments[0].Replica != 0 || segments[1].Replica != 1 {
		t.Fatalf("OnChunk segments %+v, want a 2-item owner prefix then a 2-item failover suffix", segments)
	}
}

// An exhausted budget must attribute the failure to an item that is still
// unanswered: a failure index that a later partial salvage answered would
// send the operator to a cell that is fine.
func TestExhaustedBudgetNamesUnansweredItemAfterSalvage(t *testing.T) {
	part := NewPartitioner(2)
	var shape serve.SweepItem
	found := false
	for _, s := range quickGridShapes() {
		if part.Owner(s) == 0 {
			shape = serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("shard 0 owns no quick-grid shapes")
	}
	// Eight copies of one shard-0 shape: a single chunk, every salvage
	// boundary deterministic.
	items := make([]serve.SweepItem, 8)
	for i := range items {
		items[i] = shape
	}
	newSalvagingStub := func() *stubClient {
		svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
		if err != nil {
			t.Fatal(err)
		}
		inner := &LocalClient{Svc: svc}
		return &stubClient{sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			res, err := collectClient(inner, req)
			if err != nil {
				return res, err
			}
			// Answer the first 3 items of whatever suffix arrives, then
			// "crash" at the fourth.
			return res[:3], &serve.ChunkError{Index: 3, Err: errors.New("injected crash after 3 items")}
		}}
	}
	r, err := NewRouter([]Client{newSalvagingStub(), newSalvagingStub()})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	co.Spec.Chunk = len(items) // budget 2 (fleet size): A salvages 0-2, B 3-5, exhausted at 6
	_, err = co.Sweep(context.Background(), items)
	if err == nil {
		t.Fatal("sweep succeeded with every attempt failing partway")
	}
	if !strings.Contains(err.Error(), "re-dispatch budget") {
		t.Fatalf("error %q does not name the exhausted budget", err)
	}
	if want := "sweep item 6:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q, the first still-unanswered failing item", err, want)
	}
	if co.PartialSalvages() != 0 {
		t.Fatalf("failed sweep reported %d salvaged items; salvage was discarded", co.PartialSalvages())
	}
	for k, rs := range r.Stats(context.Background()).PerShard {
		if rs.RoutedSweepItems != 0 {
			t.Fatalf("replica %d credited with %d sweep items of a discarded salvage", k, rs.RoutedSweepItems)
		}
	}
	// Structured ChunkErrors are live replicas answering quickly: a
	// poison item that 5xxes identically everywhere must not bench the
	// whole fleet and black out unrelated query traffic for a cooldown.
	for k := 0; k < 2; k++ {
		if got := r.Health().State(k); got != Healthy {
			t.Fatalf("replica %d = %v after structured chunk failures, want healthy (only transport failures bench)", k, got)
		}
	}

	// The index-less variant: a chunk-level transport failure pins to the
	// chunk's first item, so a later salvage must supersede it too — the
	// budget error names the first still-unanswered item, not item 0.
	transport := &stubClient{sweep: func(serve.SweepRequest) ([]serve.SweepResult, error) {
		return nil, errors.New("stub: connection refused")
	}}
	r2, err := NewRouter([]Client{transport, newSalvagingStub()})
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewCoordinator(r2)
	co2.Spec.Chunk = len(items)
	_, err = co2.Sweep(context.Background(), items)
	if err == nil {
		t.Fatal("sweep succeeded with every attempt failing")
	}
	if want := "sweep item 3:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q (the chunk-level failure was not superseded by the salvage)", err, want)
	}
	if got := r2.Health().State(0); got != Dead {
		t.Fatalf("transport-failing replica = %v, want dead", got)
	}
}

// Every structured failure decodes in one place: a non-200 reply is
// classified by its status line, a v2 error frame by its retryable bit, and
// an item index is rebuilt as a *serve.ChunkError.
func TestHTTPClientDecodesWireErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int    // 200 sends body as a v2 frame stream
		body       string // the reply body
		want       string // the returned error's type
		wantStatus int    // Status of a *QueryError or *ReplyError
		wantIndex  int    // the rebuilt *serve.ChunkError's index; -1 for none
		retryable  bool
		wantMsg    string
	}{
		{"indexed 5xx reply", http.StatusInternalServerError,
			`{"error":{"message":"engine crashed mid-chunk","retryable":true,"index":2,"results":[{"shape":"2048x8192x4096","primitive":"AllReduce"},{"shape":"4096x8192x4096","primitive":"AllReduce"}]}}`,
			"*serve.ChunkError", 0, 2, true, "engine crashed mid-chunk"},
		{"4xx reply", http.StatusUnprocessableEntity, `{"error":{"message":"bad shape","retryable":false}}`,
			"*shard.QueryError", http.StatusUnprocessableEntity, -1, false, "bad shape"},
		{"5xx reply without an envelope", http.StatusBadGateway, `<html>upstream down</html>`,
			"*shard.ReplyError", http.StatusBadGateway, -1, true, "502 Bad Gateway"},
		{"non-retryable frame", http.StatusOK, `{"frame":"error","error":{"message":"bad item","retryable":false}}`,
			"*shard.QueryError", 0, -1, false, "bad item"},
		{"indexed frame", http.StatusOK, `{"frame":"error","salvaged":1,"error":{"message":"engine crashed","retryable":true,"index":1}}`,
			"*serve.ChunkError", 0, 1, true, "engine crashed"},
		{"frame without a body", http.StatusOK, `{"frame":"error"}`,
			"*shard.QueryError", 0, -1, false, "error frame without a body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				fmt.Fprintln(w, tc.body)
			}))
			defer srv.Close()

			_, err := collectClient(&HTTPClient{Base: srv.URL}, serve.SweepRequest{Items: make([]serve.SweepItem, 4)})
			if err == nil {
				t.Fatal("failure reply did not surface an error")
			}
			if got := fmt.Sprintf("%T", err); got != tc.want {
				t.Fatalf("error %v is a %s, want %s", err, got, tc.want)
			}
			var qe *QueryError
			var re *ReplyError
			switch {
			case errors.As(err, &qe) && qe.Status != tc.wantStatus:
				t.Fatalf("QueryError status %d, want %d", qe.Status, tc.wantStatus)
			case errors.As(err, &re) && re.Status != tc.wantStatus:
				t.Fatalf("ReplyError status %d, want %d", re.Status, tc.wantStatus)
			}
			var ce *serve.ChunkError
			if errors.As(err, &ce) != (tc.wantIndex >= 0) || ce != nil && ce.Index != tc.wantIndex {
				t.Fatalf("error %v does not carry chunk index %d", err, tc.wantIndex)
			}
			if retryable(err) != tc.retryable {
				t.Fatalf("retryable(%v) = %v, want %v", err, retryable(err), tc.retryable)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not name %q", err, tc.wantMsg)
			}
		})
	}
}

// FuzzWireError runs HTTPClient.wireError over any reply status net/http
// delivers (three digits) and any body. It never panics. A 4xx is a
// *QueryError carrying its status. Any other status (a 5xx, in practice)
// is a *serve.ChunkError with the item's index when the body's envelope
// names one, and a *ReplyError carrying its status otherwise. The message
// is never empty. The seeds are TestHTTPClientDecodesWireErrors's non-200
// replies.
func FuzzWireError(f *testing.F) {
	f.Add(http.StatusInternalServerError, []byte(`{"error":{"message":"engine crashed mid-chunk","retryable":true,"index":2,"results":[{"shape":"2048x8192x4096","primitive":"AllReduce"},{"shape":"4096x8192x4096","primitive":"AllReduce"}]}}`))
	f.Add(http.StatusUnprocessableEntity, []byte(`{"error":{"message":"bad shape","retryable":false}}`))
	f.Add(http.StatusBadGateway, []byte(`<html>upstream down</html>`))
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		status = 100 + ((status-100)%900+900)%900
		resp := &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		err := (&HTTPClient{Base: "http://fuzz"}).wireError("/sweep", resp, nil)
		if _, msg, ok := strings.Cut(err.Error(), "shard: http://fuzz/sweep: "); !ok || msg == "" {
			t.Fatalf("status %d, body %q: error %q has no message", status, body, err)
		}
		var env serve.ErrorEnvelope
		if json.NewDecoder(bytes.NewReader(body)).Decode(&env) != nil {
			env = serve.ErrorEnvelope{}
		}
		var qe *QueryError
		var ce *serve.ChunkError
		var re *ReplyError
		switch idx := env.Error.Index; {
		case status >= 400 && status < 500:
			if !errors.As(err, &qe) || qe.Status != status {
				t.Fatalf("status %d, body %q: %T %v, want a *QueryError with its status", status, body, err, err)
			}
		case idx != nil && *idx >= 0:
			if !errors.As(err, &ce) || ce.Index != *idx || errors.As(err, &re) {
				t.Fatalf("status %d, body %q: %T %v, want a *serve.ChunkError at index %d", status, body, err, err, *idx)
			}
		default:
			if !errors.As(err, &re) || re.Status != status {
				t.Fatalf("status %d, body %q: %T %v, want a *ReplyError with its status", status, body, err, err)
			}
		}
	})
}

// The router's /sweep proxy must honor the forwarded chunk size and attempt
// budget instead of silently rebuilding a coordinator with defaults.
func TestRouterSweepProxyHonorsForwardedKnobs(t *testing.T) {
	items := coordItems()

	// Chunk: every dispatch the proxy makes must respect the caller's
	// chunk size, splitting a shard's sub-grid into several calls.
	t.Run("chunk", func(t *testing.T) {
		var mu sync.Mutex
		var calls []int
		clients := make([]Client, 2)
		for k := range clients {
			svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
			if err != nil {
				t.Fatal(err)
			}
			inner := &LocalClient{Svc: svc}
			clients[k] = &stubClient{sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
				mu.Lock()
				calls = append(calls, len(req.Items))
				mu.Unlock()
				return collectClient(inner, req)
			}}
		}
		r, err := NewRouter(clients)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(r.Handler())
		defer front.Close()

		body, err := json.Marshal(serve.SweepRequest{SweepSpec: serve.SweepSpec{Chunk: 2}, Items: items})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(calls) <= 2 {
			t.Fatalf("proxy made %d dispatches for %d items at chunk 2; forwarded chunk size ignored", len(calls), len(items))
		}
		for _, n := range calls {
			if n > 2 {
				t.Fatalf("proxy dispatched a %d-item chunk, want <= 2 (forwarded chunk size)", n)
			}
		}
	})

	// A remote-supplied budget is clamped to twice the fleet size: an
	// absurd attempts value over a dead fleet must fail within a couple
	// of cooldown windows, not wedge the proxy goroutine indefinitely.
	t.Run("attempts-clamped", func(t *testing.T) {
		down := func() *stubClient {
			return &stubClient{
				sweep: func(serve.SweepRequest) ([]serve.SweepResult, error) {
					return nil, errors.New("stub: replica is down")
				},
				healthz: func() error { return errors.New("stub: replica is down") },
			}
		}
		r, err := NewRouter([]Client{down(), down()})
		if err != nil {
			t.Fatal(err)
		}
		r.Health().SetCooldown(30 * time.Millisecond)
		front := httptest.NewServer(r.Handler())
		defer front.Close()

		body, err := json.Marshal(serve.SweepRequest{SweepSpec: serve.SweepSpec{Attempts: 1 << 20}, Items: items})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("sweep over a dead fleet succeeded")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("clamped budget took %v; the proxy goroutine was wedged by the remote attempts value", elapsed)
		}
	})

	// Attempts: a budget of 1 must fail the proxied sweep when the owner
	// is down (no failover budget), while 2 fails over and succeeds.
	for _, tc := range []struct {
		attempts int
		wantOK   bool
	}{{1, false}, {2, true}} {
		t.Run(fmt.Sprintf("attempts=%d", tc.attempts), func(t *testing.T) {
			part := NewPartitioner(2)
			var sub []serve.SweepItem
			for _, it := range items {
				if part.Owner(it.Shape()) == 0 {
					sub = append(sub, it)
				}
			}
			if len(sub) == 0 {
				t.Fatal("shard 0 owns no quick-grid items")
			}
			svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
			if err != nil {
				t.Fatal(err)
			}
			downOwner := &stubClient{sweep: func(serve.SweepRequest) ([]serve.SweepResult, error) {
				return nil, errors.New("stub: owner is down")
			}}
			r, err := NewRouter([]Client{downOwner, &LocalClient{Svc: svc}})
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(r.Handler())
			defer front.Close()

			body, err := json.Marshal(serve.SweepRequest{SweepSpec: serve.SweepSpec{Attempts: tc.attempts}, Items: sub})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if tc.wantOK && resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d with failover budget, want 200", resp.StatusCode)
			}
			if !tc.wantOK {
				if resp.StatusCode == http.StatusOK {
					t.Fatal("sweep succeeded with attempts=1 and a dead owner; forwarded budget ignored")
				}
				var env serve.ErrorEnvelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(env.Error.Message, "re-dispatch budget") {
					t.Fatalf("error %q does not name the exhausted budget", env.Error.Message)
				}
				if !env.Error.Retryable {
					t.Fatal("exhausted budget not marked retryable in the envelope")
				}
			}
		})
	}
}
