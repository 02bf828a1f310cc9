package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gemm"
	"repro/internal/hw"
)

func testService(t *testing.T) *Service {
	t.Helper()
	s, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var warmShapes = []gemm.Shape{
	{M: 2048, N: 8192, K: 4096},
	{M: 4096, N: 8192, K: 4096},
	{M: 4096, N: 8192, K: 8192},
}

// A warm query must be answered entirely from the shape cache: no search, no
// plan compilation — the cache counters prove it.
func TestWarmQueryAnswersFromCache(t *testing.T) {
	s := testService(t)
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, warmShapes, 0); err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	if warm.Tunes != uint64(len(warmShapes)) {
		t.Fatalf("warm tunes = %d, want %d", warm.Tunes, len(warmShapes))
	}
	if warm.ShapesCached != len(warmShapes) {
		t.Fatalf("shapes cached = %d, want %d", warm.ShapesCached, len(warmShapes))
	}
	if int(warm.Engine.Misses) != len(warmShapes) {
		t.Fatalf("engine compiles = %d, want %d", warm.Engine.Misses, len(warmShapes))
	}

	for _, shape := range warmShapes {
		ans, err := s.Query(context.Background(), Query{Shape: shape, Prim: hw.AllReduce})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Source != SourceCache {
			t.Fatalf("query %v source = %q, want %q", shape, ans.Source, SourceCache)
		}
		if ans.Waves != ans.Partition.TotalWaves() || ans.Predicted <= 0 {
			t.Fatalf("query %v: malformed answer %+v", shape, ans)
		}
	}
	after := s.Stats()
	if after.Hits != uint64(len(warmShapes)) || after.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want %d/0", after.Hits, after.Misses, len(warmShapes))
	}
	if after.Tunes != warm.Tunes {
		t.Fatalf("warm queries re-tuned: tunes %d -> %d", warm.Tunes, after.Tunes)
	}
	if after.Engine.Misses != warm.Engine.Misses {
		t.Fatalf("warm queries compiled: engine misses %d -> %d", warm.Engine.Misses, after.Engine.Misses)
	}
}

// A cold query tunes once and the result is cached for the next query.
func TestColdQueryTunesThenCaches(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096}
	ans, err := s.Query(context.Background(), Query{Shape: shape, Prim: hw.AllReduce})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != SourceTuned {
		t.Fatalf("cold query source = %q, want %q", ans.Source, SourceTuned)
	}
	again, err := s.Query(context.Background(), Query{Shape: shape, Prim: hw.AllReduce})
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceCache {
		t.Fatalf("second query source = %q, want %q", again.Source, SourceCache)
	}
	if again.Partition.String() != ans.Partition.String() {
		t.Fatalf("cached partition %v differs from tuned %v", again.Partition, ans.Partition)
	}
	st := s.Stats()
	if st.Tunes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("tunes/hits/misses = %d/%d/%d, want 1/1/1", st.Tunes, st.Hits, st.Misses)
	}
}

// waiters reports how many callers are parked on a key's in-flight call.
func waiters(g *flightGroup, key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// N concurrent queries for one untuned shape must trigger exactly one
// search; the rest share its result.
func TestSingleflightCollapsesDuplicateMisses(t *testing.T) {
	s := testService(t)
	q := Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 8192}, Prim: hw.AllReduce}
	// Pre-build the tuner so the queries below race only on the tune.
	if _, err := s.tunerFor(q.Prim); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	s.tuneHook = func() error { <-release; return nil }

	const dups = 3
	answers := make([]Answer, dups+1)
	errs := make([]error, dups+1)
	var wg sync.WaitGroup
	for i := 0; i <= dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = s.Query(context.Background(), q)
		}(i)
	}
	// Hold the first search open until every duplicate is parked on it,
	// then let it finish: the collapse is deterministic, not timing luck.
	for waiters(&s.tuneFlight, flightKey(q)) < dups {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if answers[i].Source != SourceTuned {
			t.Fatalf("query %d source = %q, want %q", i, answers[i].Source, SourceTuned)
		}
		if answers[i].Partition.String() != answers[0].Partition.String() {
			t.Fatalf("query %d partition %v differs from %v", i, answers[i].Partition, answers[0].Partition)
		}
	}
	st := s.Stats()
	if st.Tunes != 1 {
		t.Fatalf("tunes = %d, want 1 (singleflight must collapse)", st.Tunes)
	}
	if st.Collapsed != dups {
		t.Fatalf("collapsed = %d, want %d", st.Collapsed, dups)
	}
	if st.Misses != dups+1 {
		t.Fatalf("misses = %d, want %d", st.Misses, dups+1)
	}
}

// The nearest-neighbor fallback must hold through the concurrent cache: a
// same-wave-count neighbor transfers, an incompatible wave count re-tunes
// instead of serving a partition that cannot cover the query's waves.
func TestLookupWaveMismatchFallsBackToTune(t *testing.T) {
	s := testService(t)
	seed := gemm.Shape{M: 2048, N: 8192, K: 8192}
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{seed}, 0); err != nil {
		t.Fatal(err)
	}
	// Same M*N, nearby K: same wave count, transfers from the cache.
	near, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 6144}, Prim: hw.AllReduce})
	if err != nil {
		t.Fatal(err)
	}
	if near.Source != SourceCache {
		t.Fatalf("same-wave neighbor source = %q, want %q", near.Source, SourceCache)
	}
	// Much larger M: different wave count; the cached partition must not
	// transfer, and the answer must cover the query's own wave count.
	far, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 16384, N: 8192, K: 8192}, Prim: hw.AllReduce})
	if err != nil {
		t.Fatal(err)
	}
	if far.Source != SourceTuned {
		t.Fatalf("wave-mismatch query source = %q, want %q", far.Source, SourceTuned)
	}
	if far.Waves == near.Waves {
		t.Fatalf("distinct wave counts expected, both %d", far.Waves)
	}
}

// Imbalance is a query dimension: a partition tuned for balanced traffic
// must not be served from the cache for a skewed query of the same shape.
func TestQueryImbalanceSeparatesCacheEntries(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096}
	balanced, err := s.Query(context.Background(), Query{Shape: shape, Prim: hw.AllToAll, Imbalance: 1})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := s.Query(context.Background(), Query{Shape: shape, Prim: hw.AllToAll, Imbalance: 8})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Source != SourceTuned {
		t.Fatalf("skewed query served %q from the balanced tune", skewed.Source)
	}
	if balanced.Source != SourceTuned {
		t.Fatalf("first query source = %q", balanced.Source)
	}
	// Each imbalance now hits its own entry.
	for _, imb := range []float64{1, 8} {
		ans, err := s.Query(context.Background(), Query{Shape: shape, Prim: hw.AllToAll, Imbalance: imb})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Source != SourceCache {
			t.Fatalf("imbalance %v repeat source = %q, want %q", imb, ans.Source, SourceCache)
		}
	}
	st := s.Stats()
	if st.Tunes != 2 || st.ShapesCached != 2 {
		t.Fatalf("tunes/cached = %d/%d, want 2/2 (one entry per imbalance)", st.Tunes, st.ShapesCached)
	}
}

// Unsupported primitives and malformed shapes fail loudly.
func TestQueryValidation(t *testing.T) {
	s := testService(t)
	if _, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 0, N: 8192, K: 4096}, Prim: hw.AllReduce}); err == nil {
		t.Error("zero-dimension shape accepted")
	}
	if _, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllGather}); err == nil {
		t.Error("AllGather accepted but the engine cannot execute it")
	}
	if _, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 1}); err == nil {
		t.Error("single-GPU service accepted")
	}
}

// A mixed concurrent workload (hits, misses, duplicates, two primitives)
// must be race-clean and every answer internally consistent. The race job
// runs this under -race.
func TestConcurrentMixedQueries(t *testing.T) {
	s := testService(t)
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, warmShapes, 0); err != nil {
		t.Fatal(err)
	}
	shapes := append([]gemm.Shape{}, warmShapes...)
	shapes = append(shapes,
		gemm.Shape{M: 2048, N: 8192, K: 8192},
		gemm.Shape{M: 8192, N: 8192, K: 4096},
	)
	prims := []hw.Primitive{hw.AllReduce, hw.AllToAll}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := Query{
					Shape: shapes[(w+i)%len(shapes)],
					Prim:  prims[(w+i)%len(prims)],
				}
				ans, err := s.Query(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if ans.Waves != ans.Partition.TotalWaves() {
					t.Errorf("inconsistent answer %+v", ans)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != 80 {
		t.Fatalf("hits+misses = %d, want 80", st.Hits+st.Misses)
	}
	if len(st.Primitives) != 2 {
		t.Fatalf("primitives = %v, want AllReduce and AllToAll", st.Primitives)
	}
}

func TestParsePrimitive(t *testing.T) {
	for name, want := range map[string]hw.Primitive{
		"AR": hw.AllReduce, "AllReduce": hw.AllReduce,
		"RS": hw.ReduceScatter, "ReduceScatter": hw.ReduceScatter,
		"A2A": hw.AllToAll, "AllToAll": hw.AllToAll,
	} {
		got, err := ParsePrimitive(name)
		if err != nil || got != want {
			t.Errorf("ParsePrimitive(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePrimitive("AG"); err == nil {
		t.Error("AllGather parsed but the service cannot serve it")
	}
	if _, err := ParsePrimitive("bogus"); err == nil {
		t.Error("bogus primitive accepted")
	}
}
