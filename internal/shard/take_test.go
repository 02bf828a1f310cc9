package shard

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/serve"
)

// The queue discipline itself: an owner pops its own chunks from the head,
// an idle worker takes the tail chunk of the owner with the most chunks
// left, never an owner's first chunk, and a worker that may not take gets
// nothing once its own queue is empty.
func TestChunkQueuesTakeFromLongestTail(t *testing.T) {
	// Owner 0: 5 chunks of 2; owner 1: 2 chunks; owner 2: none.
	q := newChunkQueues([][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11}, nil}, 2)
	const yes, no = true, false
	if c, taken := q.next(0, yes); !slices.Equal(c, []int{0, 1}) || taken {
		t.Fatalf("owner 0's first pop = %v (taken %v), want its head chunk [0 1]", c, taken)
	}
	if c, taken := q.next(2, no); c != nil || taken {
		t.Fatalf("a worker that may not take got %v", c)
	}
	// Owner 0 has 4 takeable chunks, owner 1 one (its head stays home).
	for _, want := range [][]int{{8}, {6, 7}, {4, 5}} {
		if c, taken := q.next(2, yes); !slices.Equal(c, want) || !taken {
			t.Fatalf("take = %v (taken %v), want %v from owner 0's tail", c, taken, want)
		}
	}
	// Owner 0 and owner 1 now tie at one takeable chunk: the lower owner.
	if c, taken := q.next(2, yes); !slices.Equal(c, []int{2, 3}) || !taken {
		t.Fatalf("take = %v (taken %v), want owner 0's last takeable [2 3]", c, taken)
	}
	if c, taken := q.next(2, yes); !slices.Equal(c, []int{11}) || !taken {
		t.Fatalf("take = %v (taken %v), want owner 1's tail [11]", c, taken)
	}
	// Only owner 1's first chunk is left, and it is not takeable.
	if c, _ := q.next(2, yes); c != nil {
		t.Fatalf("took %v, an owner's first chunk", c)
	}
	if c, taken := q.next(1, no); !slices.Equal(c, []int{9, 10}) || taken {
		t.Fatalf("owner 1's pop = %v (taken %v), want its head chunk [9 10]", c, taken)
	}
	if c, _ := q.next(0, yes); c != nil {
		t.Fatalf("drained queues handed out %v", c)
	}
}

// ownerItems returns n sweep items whose shapes replica owner of a fleet of
// size replicas owns, cycling through the quick-grid shapes it owns.
func ownerItems(t *testing.T, replicas, owner, n int) []serve.SweepItem {
	t.Helper()
	part := NewPartitioner(replicas)
	var owned []serve.SweepItem
	for _, it := range coordItems() {
		if part.Owner(it.Shape()) == owner {
			owned = append(owned, it)
		}
	}
	if len(owned) == 0 {
		t.Fatalf("replica %d of %d owns no quick-grid shapes", owner, replicas)
	}
	items := make([]serve.SweepItem, n)
	for i := range items {
		items[i] = owned[i%len(owned)]
	}
	return items
}

// gatedPair builds two in-process replicas, each behind a stub counting its
// chunks in calls[k]. Replica 0 holds its first chunk until replica 1 has
// received one, or until wait elapses: over a grid replica 0 owns
// entirely, replica 1 is then sure to find chunks left to take whenever it
// may take any.
func gatedPair(t *testing.T, wait time.Duration) (r *Router, calls *[2]atomic.Int64) {
	t.Helper()
	calls = new([2]atomic.Int64)
	gate := make(chan struct{})
	var open sync.Once
	clients := make([]Client, 2)
	for k := range clients {
		svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
		if err != nil {
			t.Fatal(err)
		}
		inner := &LocalClient{Svc: svc}
		clients[k] = &stubClient{sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			if calls[k].Add(1) == 1 && k == 0 {
				select {
				case <-gate:
				case <-time.After(wait):
				}
			}
			if k == 1 {
				open.Do(func() { close(gate) })
			}
			return collectClient(inner, req)
		}}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	return r, calls
}

// Late binding balances a lopsided grid: over two healthy replicas, an
// untuned sweep of a grid replica 0 owns entirely runs on both, the idle
// replica's chunks count as taken rather than re-dispatched, and the merge
// is still byte-identical to single-process engine.Batch. The chunks run as
// the queue discipline says: the owner's as an ascending prefix of its
// queue, the taker's from the tail down.
func TestIdleReplicaTakesChunksOfBusyOwner(t *testing.T) {
	items := ownerItems(t, 2, 0, 16)
	refJSON := coordReference(t, items)
	r, calls := gatedPair(t, 5*time.Second)
	co := NewCoordinator(r)
	co.Spec.Chunk = 2 // 8 chunks, all owned by replica 0
	var mu sync.Mutex
	sent := [2][]int{} // chunk numbers by the replica they were sent to, in order
	co.OnChunk = func(cr ChunkResult) {
		mu.Lock()
		defer mu.Unlock()
		if cr.Shard != 0 || cr.Replica != cr.Origin || len(cr.Indices) != 2 {
			t.Errorf("segment %+v, want a whole chunk of shard 0 answered where it was sent", cr)
			return
		}
		sent[cr.Origin] = append(sent[cr.Origin], cr.Indices[0]/2)
	}
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("merge with taken chunks diverges from single-process engine.Batch")
	}
	executed := [2]int{}
	for i, res := range results {
		if res.Owner != 0 {
			t.Fatalf("item %d attributed to owner %d, want the ring owner 0", i, res.Owner)
		}
		executed[res.Replica]++
	}
	if executed[0] == 0 || executed[1] == 0 {
		t.Fatalf("items executed per replica %v; both replicas must run chunks", executed)
	}
	if got := co.Taken(); got == 0 || got != uint64(calls[1].Load()) {
		t.Fatalf("%d taken chunks, want every one of replica 1's %d chunks", got, calls[1].Load())
	}
	if co.Redispatches() != 0 || r.Stats(context.Background()).Failovers != 0 {
		t.Fatalf("%d re-dispatches on a healthy fleet; a taken chunk is not one", co.Redispatches())
	}
	// Owner order: replica 0 ran chunks 0, 1, ..., j; replica 1 took
	// chunks 7, 6, ..., j+1.
	own, taken := sent[0], sent[1]
	for p, c := range own {
		if c != p {
			t.Fatalf("owner ran chunks %v, want an ascending prefix 0, 1, ...", own)
		}
	}
	for p, c := range taken {
		if c != 7-p {
			t.Fatalf("taker ran chunks %v, want 7, 6, ... from the tail", taken)
		}
	}
	if len(own)+len(taken) != 8 {
		t.Fatalf("owner ran %v and taker %v; want the 8 chunks once each", own, taken)
	}
}

// A tuned answer depends on its owner's shape cache, so a tuned sweep
// never lets an idle replica take a chunk: every item runs on its owner.
func TestTunedSweepTakesNoChunks(t *testing.T) {
	items := ownerItems(t, 2, 0, 16)
	// Replica 0 waits up to 100 ms on its first chunk: time enough for an
	// idle replica 1 to take one if tuned chunks could be taken.
	r, calls := gatedPair(t, 100*time.Millisecond)
	co := NewCoordinator(r)
	co.Spec.Chunk = 2
	co.Spec.Tune = true
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Owner != 0 || res.Replica != res.Owner {
			t.Fatalf("tuned item %d: owner %d, replica %d; want both 0", i, res.Owner, res.Replica)
		}
		if res.Source == "" {
			t.Fatalf("tuned item %d carries no tuner source", i)
		}
	}
	if co.Taken() != 0 || calls[1].Load() != 0 {
		t.Fatalf("%d chunks taken, %d sent to replica 1; tuned sweeps take none", co.Taken(), calls[1].Load())
	}
}

// A replica benched before the sweep executes nothing: it takes no chunk,
// and its own chunk fails over past it. The merge is unchanged.
func TestBenchedReplicaTakesNoChunks(t *testing.T) {
	// Replica 1 owns one item and replica 0 twelve: replica 1 runs out of
	// work of its own at once, with most of replica 0's queue left.
	items := append(ownerItems(t, 2, 0, 12), ownerItems(t, 2, 1, 1)...)
	refJSON := coordReference(t, items)
	var benchedCalls atomic.Int64
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	benched := &stubClient{sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
		benchedCalls.Add(1)
		return collectClient(&LocalClient{Svc: svc}, req)
	}}
	healthy, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]Client{&LocalClient{Svc: healthy}, benched})
	if err != nil {
		t.Fatal(err)
	}
	r.Health().MarkFailed(1) // inside the default cooldown for the whole test
	co := NewCoordinator(r)
	co.Spec.Chunk = 1
	var mu sync.Mutex
	var segs []ChunkResult
	co.OnChunk = func(cr ChunkResult) {
		mu.Lock()
		segs = append(segs, cr)
		mu.Unlock()
	}
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("merge around a benched replica diverges from single-process engine.Batch")
	}
	if n := benchedCalls.Load(); n != 0 {
		t.Fatalf("benched replica executed %d chunks", n)
	}
	for _, cr := range segs {
		if cr.Origin == 1 && cr.Shard != 1 {
			t.Fatalf("benched replica took shard %d's chunk %v", cr.Shard, cr.Indices)
		}
		if cr.Replica != 0 {
			t.Fatalf("chunk %v executed by replica %d, want the healthy replica 0", cr.Indices, cr.Replica)
		}
	}
	if co.Redispatches() != 1 || co.Taken() != 0 {
		t.Fatalf("%d re-dispatches and %d taken chunks, want the benched replica's one chunk re-dispatched and nothing taken",
			co.Redispatches(), co.Taken())
	}
	if got := r.Health().State(1); got != Dead {
		t.Fatalf("benched replica is %v after the sweep, want dead", got)
	}
}

// Attribution stays deterministic under taking: with bad items in two
// owners' queues, one of them in the tail chunk an idle replica takes
// before the owner could reach it, the sweep reports the lowest bad index
// — whether that is the taker's failure, a failure the owner reaches
// after the taker failed first, or another owner's.
func TestTakenChunkFailureKeepsLowestIndex(t *testing.T) {
	const n = 3
	// Replica 0 owns six items, replica 1 three, and replica 2 one: it
	// runs its own chunk, then takes replica 0's tail. Chunks are single
	// items. Every case ends replica 1's queue with a bad item, so it
	// stops before it could take, and replica 2 is the only taker.
	a, b, c := ownerItems(t, n, 0, 6), ownerItems(t, n, 1, 3), ownerItems(t, n, 2, 1)
	for _, tc := range []struct {
		name  string
		items []serve.SweepItem
		bad   []int // grid indices of the rejected items
		want  int
	}{
		// Grid b(0-2) a(3-8) c(9): the taker fails at 8, replica 1 at 2.
		{"another owner's lower index", concat(b, a, c), []int{2, 8}, 2},
		// Grid a(0-5) b(6-8) c(9): the taker fails at 5, replica 1 at 8.
		{"the taker's lower index", concat(a, b, c), []int{5, 8}, 5},
		// Replica 0's queue holds two: the taker fails at its tail (5),
		// and replica 0 still runs its prefix up to 2.
		{"the owner's own lower index", concat(a, b, c), []int{2, 5, 8}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := slices.Clone(tc.items)
			for _, i := range tc.bad {
				items[i].Prim = "NOPE"
			}
			for run := 0; run < 5; run++ {
				r, takerHitBad := attributionFleet(t, n)
				co := NewCoordinator(r)
				co.Spec.Chunk = 1
				_, err := co.Sweep(context.Background(), items)
				if err == nil {
					t.Fatal("sweep with rejected items succeeded")
				}
				if want := fmt.Sprintf("sweep item %d:", tc.want); !strings.Contains(err.Error(), want) {
					t.Fatalf("run %d: error %q does not name %q, the lowest bad index", run, err, want)
				}
				if retryable(err) {
					t.Fatalf("run %d: deterministic rejection classified retryable: %v", run, err)
				}
				if !takerHitBad.Load() {
					t.Fatalf("run %d: the taker's first taken chunk held no bad item", run)
				}
			}
		})
	}
}

func concat(parts ...[]serve.SweepItem) []serve.SweepItem {
	var out []serve.SweepItem
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// attributionFleet builds n in-process replicas. Replica n-1 is the taker:
// its second chunk is the first it takes, since it owns one. Replica 0
// holds its first chunk until the taker has received that chunk, so the
// taker reaches replica 0's tail first; takerHitBad reports whether the
// taken chunk carried a rejected item.
func attributionFleet(t *testing.T, n int) (r *Router, takerHitBad *atomic.Bool) {
	t.Helper()
	takerHitBad = new(atomic.Bool)
	gate := make(chan struct{})
	clients := make([]Client, n)
	for k := range clients {
		svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
		if err != nil {
			t.Fatal(err)
		}
		inner := &LocalClient{Svc: svc}
		var calls atomic.Int64
		clients[k] = &stubClient{sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			switch call := calls.Add(1); {
			case k == 0 && call == 1:
				select {
				case <-gate:
				case <-time.After(5 * time.Second):
					t.Error("the taker took no chunk within 5s")
				}
			case k == n-1 && call == 2:
				takerHitBad.Store(slices.ContainsFunc(req.Items, func(it serve.SweepItem) bool { return it.Prim == "NOPE" }))
				close(gate)
			}
			return collectClient(inner, req)
		}}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	return r, takerHitBad
}
