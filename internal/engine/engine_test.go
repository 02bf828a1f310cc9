package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
)

// testPlatform shrinks the RTX 4090 profile so small matrices still span
// multiple waves and the DES runs stay fast under -race.
func testPlatform() hw.Platform {
	plat := hw.RTX4090PCIe()
	plat.GPU.SMs = 8
	plat.CommSMs = 2
	return plat
}

// shapeGrid builds a mixed grid: shapes x primitives x partitions x group
// sizes, including functional runs whose outputs depend on real data.
func shapeGrid() []core.Options {
	plat := testPlatform()
	cfg := gemm.Config{TileM: 8, TileN: 8, Swizzle: 2}
	var runs []core.Options
	i := 0
	for _, shape := range []gemm.Shape{
		{M: 32, N: 48, K: 9},
		{M: 48, N: 32, K: 7},
		{M: 64, N: 64, K: 11},
		{M: 32, N: 32, K: 5},
	} {
		for _, prim := range []hw.Primitive{hw.AllReduce, hw.ReduceScatter, hw.AllToAll} {
			n := 2 + 2*(i%2)
			o := core.Options{
				Plat: plat, NGPUs: n, Shape: shape, Cfg: cfg, Prim: prim,
				Seed: uint64(100 + i),
			}
			if prim == hw.AllToAll {
				o.Imbalance = 1.2
			} else {
				// Functional AllReduce/ReduceScatter runs: their
				// results carry real output data into the fingerprint.
				o.Functional = true
			}
			runs = append(runs, o)
			i++
		}
	}
	return runs
}

// fingerprint renders everything observable about a result to one string,
// including functional output bytes, so "byte-identical" is checkable with
// plain string comparison.
func fingerprint(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lat=%d gemmEnd=%d waveSize=%d waves=%d part=%s tiles=%d\n",
		r.Latency, r.GEMMEnd, r.WaveSize, r.Waves, r.Partition, r.Plan.Tiles)
	bounds := r.Partition.BoundsClamped(r.Plan, r.WaveSize)
	for g, gt := range r.Groups {
		fmt.Fprintf(&b, "g%d w=%d t=%d bytes=%d sig=%d end=%d\n",
			g, bounds[g].WaveHi-bounds[g].WaveLo, bounds[g].Tiles(), gt.Bytes, gt.SignalAt, gt.CommEnd)
	}
	return b.String()
}

func functionalFingerprint(o core.Options, r *core.Result) string {
	if !o.Functional {
		return ""
	}
	switch o.Prim {
	case hw.AllReduce:
		return fmt.Sprint(r.AROutput(0).Data)
	case hw.ReduceScatter:
		return fmt.Sprint(r.RSLocal(0).Data)
	}
	return ""
}

// TestBatchMatchesSerial is the determinism contract: Batch over a shape
// grid returns byte-identical results to serial core.Run calls, for every
// worker count. The simulator's (time, insertion-order) tie-breaking makes
// this exact, not approximate.
func TestBatchMatchesSerial(t *testing.T) {
	runs := shapeGrid()
	want := make([]string, len(runs))
	for i, o := range runs {
		res, err := core.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		want[i] = fingerprint(res) + functionalFingerprint(o, res)
	}
	for _, workers := range []int{1, 2, 4, 8, 32} {
		e := New(workers, 0)
		results, err := e.Batch(context.Background(), runs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(runs) {
			t.Fatalf("workers=%d: %d results for %d runs", workers, len(results), len(runs))
		}
		for i, res := range results {
			got := fingerprint(res) + functionalFingerprint(runs[i], res)
			if got != want[i] {
				t.Errorf("workers=%d run %d diverged from serial core.Run:\ngot:\n%s\nwant:\n%s",
					workers, i, got, want[i])
			}
		}
	}
}

// TestBatchReusesPlans populates the cache with one batch of unique runs,
// then re-batches the grid twice over: the second pass must be pure cache
// hits. (The unique first pass keeps the miss count exact — concurrent
// compiles of one key can double-count misses by design, but only when the
// same key is in flight twice, which unique runs rule out.)
func TestBatchReusesPlans(t *testing.T) {
	runs := shapeGrid()
	e := New(4, 0)
	if _, err := e.Batch(context.Background(), runs); err != nil {
		t.Fatal(err)
	}
	_, misses, size := e.CacheStats()
	if int(misses) != len(runs) {
		t.Errorf("misses = %d, want %d (one compile per unique plan)", misses, len(runs))
	}
	if size != len(runs) {
		t.Errorf("cache size = %d, want %d", size, len(runs))
	}
	doubled := append(append([]core.Options{}, runs...), runs...)
	if _, err := e.Batch(context.Background(), doubled); err != nil {
		t.Fatal(err)
	}
	hits, missesAfter, _ := e.CacheStats()
	if missesAfter != misses {
		t.Errorf("misses grew to %d on a fully cached batch, want %d", missesAfter, misses)
	}
	if hits < uint64(len(doubled)) {
		t.Errorf("hits = %d, want >= %d", hits, len(doubled))
	}
}

// TestBatchErrorIsLowestIndex: the reported failure must be the same one a
// serial loop would hit first, regardless of worker count.
func TestBatchErrorIsLowestIndex(t *testing.T) {
	runs := shapeGrid()
	runs[3].NGPUs = 1 // compile error: overlap needs >= 2 GPUs
	runs[7].NGPUs = 0 // a later error that must not win
	for _, workers := range []int{1, 8} {
		e := New(workers, 0)
		_, err := e.Batch(context.Background(), runs)
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !strings.Contains(err.Error(), "run 3:") {
			t.Errorf("workers=%d: error %q does not name run 3", workers, err)
		}
	}
}

// TestExecVariantOnCachedPlan compiles one plan and executes variants that
// differ only in per-run knobs; each must match the equivalent core.Run.
func TestExecVariantOnCachedPlan(t *testing.T) {
	plat := testPlatform()
	base := core.Options{
		Plat: plat, NGPUs: 2, Shape: gemm.Shape{M: 64, N: 64, K: 8},
		Cfg: gemm.Config{TileM: 8, TileN: 8, Swizzle: 2}, Prim: hw.AllReduce,
	}
	trueSMs := plat.GPU.SMs - plat.CommSMs
	// Pin the partition: a wave-size override re-derives the per-wave
	// default otherwise, which is a different plan, not a variant.
	gp, err := gemm.NewPlan(base.Shape, base.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.Partition = gemm.PerWave(gp.Waves(trueSMs))
	plan, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	e := New(1, 0)

	// Timing variant with a misconfigured wave size, against core.Run.
	mis := base
	mis.WaveSizeOverride = trueSMs + 3
	want, err := core.Run(context.Background(), mis)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ExecPlan(context.Background(), plan, core.Variant{WaveSizeOverride: trueSMs + 3})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Errorf("wave-override variant diverged:\ngot:\n%s\nwant:\n%s", fingerprint(got), fingerprint(want))
	}

	// Functional variant on the same compiled plan.
	fun := base
	fun.Functional = true
	fun.Seed = 77
	wantF, err := core.Run(context.Background(), fun)
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := e.ExecPlan(context.Background(), plan, core.Variant{Functional: true, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if !gotF.AROutput(0).Equal(wantF.AROutput(0)) {
		t.Error("functional variant output differs from core.Run")
	}
}

// ExecPlan executes DES and analytic variants only; any other label is an
// error, not a silent DES run.
func TestExecRejectsUnknownFidelity(t *testing.T) {
	o := core.Options{
		Plat: testPlatform(), NGPUs: 2, Shape: gemm.Shape{M: 32, N: 32, K: 4},
		Cfg: gemm.Config{TileM: 8, TileN: 8, Swizzle: 2}, Prim: hw.AllReduce,
		Fidelity: "bogus",
	}
	_, err := New(1, 0).Exec(context.Background(), o)
	if err == nil || !strings.Contains(err.Error(), `engine: unknown fidelity "bogus"`) {
		t.Fatalf("Exec at fidelity %q: err = %v, want the unknown-fidelity error", o.Fidelity, err)
	}
}

// TestCacheEviction: an engine with a tiny cache must evict least-recently
// used plans and stay within capacity.
func TestCacheEviction(t *testing.T) {
	runs := shapeGrid()[:3]
	e := New(1, 2)
	for _, o := range runs {
		if _, err := e.Exec(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := e.CacheStats(); size != 2 {
		t.Fatalf("cache size = %d, want capacity 2", size)
	}
	// runs[0] was evicted; re-running it must miss, then re-running
	// runs[2] (still resident) must hit.
	_, missesBefore, _ := e.CacheStats()
	if _, err := e.Exec(context.Background(), runs[0]); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := e.CacheStats(); misses != missesBefore+1 {
		t.Error("expected a miss after eviction of the oldest plan")
	}
	hitsBefore, _, _ := e.CacheStats()
	if _, err := e.Exec(context.Background(), runs[2]); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := e.CacheStats(); hits != hitsBefore+1 {
		t.Error("expected a hit for the most recently used plan")
	}
}

// TestConcurrentMissesCompileOnce: callers racing on one uncached key
// compile a single plan; the rest wait for it, count as hits, and share
// the one immutable plan.
func TestConcurrentMissesCompileOnce(t *testing.T) {
	o := shapeGrid()[0]
	e := New(1, 0)
	const callers = 16
	plans := make([]*Plan, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plans[i], errs[i] = e.Plan(o)
		}()
	}
	close(start)
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a second compiled plan", i)
		}
	}
	if hits, misses, size := e.CacheStats(); misses != 1 || hits != callers-1 || size != 1 {
		t.Fatalf("hits/misses/size = %d/%d/%d, want %d/1/1", hits, misses, size, callers-1)
	}
}

// TestFailedCompileIsNotCached: a compile that fails on a variant field
// leaves no entry behind, so a valid call on the same key compiles.
func TestFailedCompileIsNotCached(t *testing.T) {
	o := shapeGrid()[0]
	bad := o
	bad.Imbalance = 0.5 // variant-only: same key as o
	if keyOf(bad) != keyOf(o) {
		t.Fatal("imbalance leaked into the plan key")
	}
	e := New(1, 0)
	if _, err := e.Plan(bad); err == nil {
		t.Fatal("imbalance 0.5 compiled")
	}
	if _, _, size := e.CacheStats(); size != 0 {
		t.Fatalf("failed compile left %d cache entries", size)
	}
	if _, err := e.Plan(o); err != nil {
		t.Fatalf("valid options after a failed compile on the same key: %v", err)
	}
	if hits, misses, size := e.CacheStats(); hits != 0 || misses != 2 || size != 1 {
		t.Fatalf("hits/misses/size = %d/%d/%d, want 0/2/1", hits, misses, size)
	}
}

// TestKeySeparatesPlans: options differing in any plan-level field must not
// share a cache entry, while variant-only differences must.
func TestKeySeparatesPlans(t *testing.T) {
	base := core.Options{
		Plat: testPlatform(), NGPUs: 2, Shape: gemm.Shape{M: 32, N: 32, K: 4},
		Cfg: gemm.Config{TileM: 8, TileN: 8, Swizzle: 2}, Prim: hw.AllReduce,
	}
	variantOnly := base
	variantOnly.Seed = 999
	variantOnly.Trace = true
	if keyOf(base) != keyOf(variantOnly) {
		t.Error("variant fields leaked into the plan key")
	}
	for name, mutate := range map[string]func(*core.Options){
		"ngpus":     func(o *core.Options) { o.NGPUs = 4 },
		"shape":     func(o *core.Options) { o.Shape.M = 64 },
		"cfg":       func(o *core.Options) { o.Cfg.Swizzle = 3 },
		"prim":      func(o *core.Options) { o.Prim = hw.ReduceScatter },
		"partition": func(o *core.Options) { o.Partition = gemm.SingleGroup(o.Shape.M * o.Shape.N / 64 / 6) },
		"wave":      func(o *core.Options) { o.WaveSizeOverride = 9 },
		"platform":  func(o *core.Options) { o.Plat.CommSMs = 3 },
	} {
		other := base
		mutate(&other)
		if keyOf(base) == keyOf(other) {
			t.Errorf("%s: plan-level difference produced identical keys", name)
		}
	}
}

// TestStatsSnapshot: the Stats snapshot must agree with CacheStats and
// report the configured bounds.
func TestStatsSnapshot(t *testing.T) {
	runs := shapeGrid()
	e := New(3, 7)
	if _, err := e.Batch(context.Background(), runs); err != nil {
		t.Fatal(err)
	}
	hits, misses, size := e.CacheStats()
	s := e.Stats()
	if s.Hits != hits || s.Misses != misses || s.Size != size {
		t.Errorf("Stats %+v disagrees with CacheStats (%d, %d, %d)", s, hits, misses, size)
	}
	if s.Capacity != 7 {
		t.Errorf("capacity = %d, want 7", s.Capacity)
	}
	if s.Workers != 3 {
		t.Errorf("workers = %d, want 3", s.Workers)
	}
	if s.Size > s.Capacity {
		t.Errorf("size %d exceeds capacity %d", s.Size, s.Capacity)
	}
}
