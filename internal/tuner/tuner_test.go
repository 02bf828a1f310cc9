package tuner

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
)

func TestSampleBandwidthCurveMonotone(t *testing.T) {
	c := SampleBandwidthCurve(hw.RTX4090PCIe(), 4, hw.AllReduce, nil)
	pts := c.Points()
	if len(pts) < 10 {
		t.Fatalf("only %d sample points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y <= pts[i-1].Y {
			t.Fatalf("sampled latency not increasing at %v", pts[i].X)
		}
	}
}

func TestPartitionFromMask(t *testing.T) {
	cases := []struct {
		mask, t int
		want    string
	}{
		{0, 5, "(5)"},
		{0b0101, 5, "(1, 2, 2)"},
		{0b0010, 5, "(2, 3)"},
		{0b1111, 5, "(1, 1, 1, 1, 1)"},
	}
	for _, c := range cases {
		if got := partitionFromMask(c.mask, c.t).String(); got != c.want {
			t.Errorf("mask %b: got %s, want %s", c.mask, got, c.want)
		}
	}
}

func TestCandidatesExhaustiveSmallT(t *testing.T) {
	// T=5, S1=2, SP=4: of the 16 binary choices, those with |G1|<=2 and
	// |GP|<=4 survive.
	cands := Candidates(5, 2, 4, 4096)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if err := c.Validate(5); err != nil {
			t.Fatalf("invalid candidate %v: %v", c, err)
		}
		if c[0] > 2 || c[len(c)-1] > 4 {
			t.Fatalf("candidate %v violates pruning", c)
		}
		if seen[c.String()] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[c.String()] = true
	}
	// The paper's example partitions must be present.
	for _, want := range []string{"(1, 2, 2)", "(2, 3)"} {
		if !seen[want] {
			t.Errorf("missing paper partition %s", want)
		}
	}
	// And the all-up-front (5) must be pruned (|G1|=5 > 2).
	if seen["(5)"] {
		t.Error("unpruned |G1|=5 candidate")
	}
}

func TestCandidatesLargeTBounded(t *testing.T) {
	cands := Candidates(80, DefaultS1, DefaultSP, 512)
	if len(cands) == 0 || len(cands) > 512 {
		t.Fatalf("large-T candidates = %d, want (0, 512]", len(cands))
	}
	for i, c := range cands {
		if err := c.Validate(80); err != nil {
			t.Fatalf("invalid candidate %v: %v", c, err)
		}
		// Fig. 15's sampling and the exhaustive oracle's tie-break
		// depend on this order: strictly increasing by string.
		if i > 0 && cands[i-1].String() >= c.String() {
			t.Fatalf("candidates %d and %d out of order: %v then %v", i-1, i, cands[i-1], c)
		}
	}
}

func TestCandidatesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"t":  func() { Candidates(0, 1, 1, 0) },
		"s1": func() { Candidates(4, 0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPredictorAgainstSimulator(t *testing.T) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 4096, N: 8192, K: 8192}
	curve := SampleBandwidthCurve(plat, 2, hw.AllReduce, nil)
	pred, err := NewPredictor(plat, shape, gemm.Config{}, curve, 1)
	if err != nil {
		t.Fatal(err)
	}
	cands := Candidates(pred.Waves, DefaultS1, DefaultSP, 256)
	var errs []float64
	for _, c := range cands[:min(len(cands), 24)] {
		want, err := pred.Predict(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), core.Options{Plat: plat, NGPUs: 2, Shape: shape, Prim: hw.AllReduce, Partition: c})
		if err != nil {
			t.Fatal(err)
		}
		// Paper §6.5: actual is always slightly above predicted.
		if res.Latency < want {
			t.Fatalf("partition %v: measured %v below prediction %v", c, res.Latency, want)
		}
		e := float64(res.Latency-want) / float64(res.Latency)
		errs = append(errs, e)
		if e > 0.15 {
			t.Fatalf("partition %v: prediction error %.1f%% too large", c, e*100)
		}
	}
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	// Paper reports 3.41%/3.44% average error; accept anything under 8%.
	if mean > 0.08 {
		t.Fatalf("mean prediction error %.2f%%, want < 8%%", mean*100)
	}
}

// Claim C2: the predictively searched partition achieves >99% of the
// exhaustively searched optimum.
func TestPredictiveSearchNearOptimal(t *testing.T) {
	plat := hw.RTX4090PCIe()
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 8192},
		{M: 4096, N: 8192, K: 4096},
	}
	for _, shape := range shapes {
		curve := SampleBandwidthCurve(plat, 4, hw.AllReduce, nil)
		pred, err := NewPredictor(plat, shape, gemm.Config{}, curve, 1)
		if err != nil {
			t.Fatal(err)
		}
		cands := Candidates(pred.Waves, DefaultS1, DefaultSP, 256)
		opts := core.Options{Plat: plat, NGPUs: 4, Shape: shape, Prim: hw.AllReduce}

		predRes, err := PredictiveSearch(context.Background(), pred, cands)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ExhaustiveSearch(context.Background(), opts, cands)
		if err != nil {
			t.Fatal(err)
		}
		run := opts
		run.Partition = predRes.Partition
		actual, err := core.Run(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		quality := float64(oracle.Latency) / float64(actual.Latency)
		if quality < 0.97 {
			t.Fatalf("%v: searched partition %v reaches %.1f%% of optimum %v, want > 97%%",
				shape, predRes.Partition, quality*100, oracle.Partition)
		}
	}
}

func TestPredictorRejectsBadPartition(t *testing.T) {
	plat := hw.A800NVLink()
	curve := SampleBandwidthCurve(plat, 2, hw.AllReduce, nil)
	pred, err := NewPredictor(plat, gemm.Shape{M: 2048, N: 8192, K: 4096}, gemm.Config{}, curve, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Predict(gemm.Partition{1}); err == nil {
		t.Fatal("wrong wave total accepted")
	}
}

func TestTunerCacheAndLookup(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 2, hw.AllReduce)
	tn.CandidateLimit = 128
	shape := gemm.Shape{M: 2048, N: 8192, K: 8192}
	part, err := tn.Tune(context.Background(), shape, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tn.CacheSize() != 1 {
		t.Fatalf("cache size = %d", tn.CacheSize())
	}
	// Same M*N and K: exact hit.
	got, ok := tn.Lookup(shape)
	if !ok || got.String() != part.String() {
		t.Fatalf("Lookup(%v) = %v, %v", shape, got, ok)
	}
	// A nearby shape with the same wave count matches too.
	near := gemm.Shape{M: 2048, N: 8192, K: 6144}
	if _, ok := tn.Lookup(near); !ok {
		t.Fatal("nearest-neighbor lookup failed for same-wave-count shape")
	}
	// A much larger shape has a different wave count: no transfer.
	if _, ok := tn.Lookup(gemm.Shape{M: 16384, N: 8192, K: 8192}); ok {
		t.Fatal("lookup transferred a partition across incompatible wave counts")
	}
}

// Regression for the pre-serve cache: Tune used t.cache = append(t.cache,
// ...), which races (and corrupts the slice) under concurrent use. The
// RWMutex-guarded cache must let whole grids tune in parallel; run under
// -race this test fails on the old code.
func TestTunerConcurrentTune(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 2, hw.AllReduce)
	tn.CandidateLimit = 64
	tn.Encode = func(e CacheEntry) []byte { return []byte(e.Partition.String()) }
	shapes := make([]gemm.Shape, 16)
	for i := range shapes {
		shapes[i] = gemm.Shape{M: 1024 * (i + 1), N: 8192, K: 4096}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(shapes); i += 8 {
				if _, err := tn.Tune(context.Background(), shapes[i], 1); err != nil {
					t.Error(err)
					return
				}
				// Interleave lookups with tunes: the serving path reads
				// while background tuning writes.
				tn.Lookup(shapes[i])
				if _, ok := tn.Encoded(shapes[i], 1); !ok {
					t.Errorf("tuned shape %v holds no encoded bytes", shapes[i])
					return
				}
				tn.Encoded(shapes[(i+1)%len(shapes)], 1) // maybe mid-tune elsewhere
			}
		}(w)
	}
	wg.Wait()
	if got := tn.CacheSize(); got != len(shapes) {
		t.Fatalf("cache size = %d, want %d", got, len(shapes))
	}
}

// TuneGrid must agree with a serial Tune loop: same partitions, same cache.
func TestTuneGridMatchesSerial(t *testing.T) {
	plat := hw.RTX4090PCIe()
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
		{M: 8192, N: 8192, K: 4096},
	}
	serial := NewTuner(plat, 2, hw.AllReduce)
	serial.CandidateLimit = 64
	want := make([]gemm.Partition, len(shapes))
	for i, s := range shapes {
		p, err := serial.Tune(context.Background(), s, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	grid := &Tuner{Plat: plat, NGPUs: 2, Prim: hw.AllReduce, Curve: serial.Curve, CandidateLimit: 64}
	got, err := grid.TuneGrid(context.Background(), shapes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shapes {
		if got[i].String() != want[i].String() {
			t.Errorf("shape %v: grid tuned %v, serial %v", shapes[i], got[i], want[i])
		}
	}
	if grid.CacheSize() != len(shapes) {
		t.Fatalf("grid cache size = %d, want %d", grid.CacheSize(), len(shapes))
	}
}

// The shape cache is capacity-bounded with least-recently-used eviction, and
// re-tuning a shape replaces its entry instead of growing the cache.
func TestTunerCacheBounded(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 2, hw.AllReduce)
	tn.CandidateLimit = 64
	shape := gemm.Shape{M: 2048, N: 8192, K: 8192}
	for i := 0; i < 3; i++ {
		if _, err := tn.Tune(context.Background(), shape, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := tn.CacheSize(); got != 1 {
		t.Fatalf("re-tuning one shape grew the cache to %d entries", got)
	}

	bounded := &Tuner{Plat: tn.Plat, NGPUs: 2, Prim: hw.AllReduce, Curve: tn.Curve,
		CandidateLimit: 64, CacheCapacity: 2}
	a := gemm.Shape{M: 2048, N: 8192, K: 4096}
	b := gemm.Shape{M: 4096, N: 8192, K: 4096}
	c := gemm.Shape{M: 8192, N: 8192, K: 4096}
	for _, s := range []gemm.Shape{a, b} {
		if _, err := bounded.Tune(context.Background(), s, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so that b is the LRU entry when c evicts.
	if _, ok := bounded.Lookup(a); !ok {
		t.Fatal("lookup of tuned shape a missed")
	}
	if _, err := bounded.Tune(context.Background(), c, 1); err != nil {
		t.Fatal(err)
	}
	if got := bounded.CacheSize(); got != 2 {
		t.Fatalf("cache size = %d, want capacity 2", got)
	}
	// b was evicted: its nearest neighbor is now a different shape, and the
	// exact entries for a and c must survive.
	for _, s := range []gemm.Shape{a, c} {
		if _, ok := bounded.Lookup(s); !ok {
			t.Errorf("lookup of retained shape %v missed", s)
		}
	}
}

// One shape tuned under different imbalance factors holds one cache entry
// per factor, and LookupAt only transfers within a factor — a partition
// tuned for balanced traffic must not answer a heavily skewed query.
func TestLookupAtSeparatesImbalance(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 4, hw.AllToAll)
	tn.CandidateLimit = 128
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096}
	balanced, err := tn.Tune(context.Background(), shape, 1)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := tn.Tune(context.Background(), shape, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tn.CacheSize() != 2 {
		t.Fatalf("cache size = %d, want one entry per imbalance", tn.CacheSize())
	}
	got, ok := tn.LookupAt(shape, 1)
	if !ok || got.String() != balanced.String() {
		t.Fatalf("LookupAt(1) = %v, %v; want %v", got, ok, balanced)
	}
	got, ok = tn.LookupAt(shape, 8)
	if !ok || got.String() != skewed.String() {
		t.Fatalf("LookupAt(8) = %v, %v; want %v", got, ok, skewed)
	}
	if _, ok := tn.LookupAt(shape, 3); ok {
		t.Fatal("LookupAt(3) transferred a partition tuned at a different imbalance")
	}
	// 0 and 1 both mean balanced, matching Tune's normalization.
	if got, ok := tn.LookupAt(shape, 0); !ok || got.String() != balanced.String() {
		t.Fatalf("LookupAt(0) = %v, %v; want the balanced entry", got, ok)
	}
	// The legacy imbalance-agnostic Lookup still matches something.
	if _, ok := tn.Lookup(shape); !ok {
		t.Fatal("imbalance-agnostic Lookup missed")
	}
}

func TestLookupEmptyCache(t *testing.T) {
	tn := &Tuner{Plat: hw.RTX4090PCIe(), NGPUs: 2, Prim: hw.AllReduce}
	if _, ok := tn.Lookup(gemm.Shape{M: 128, N: 128, K: 128}); ok {
		t.Fatal("empty cache returned a hit")
	}
}

// The tuned partition must beat both the per-wave baseline and the single
// group in most cases — §4.1.1 reports 17.34% average degradation for the
// untuned per-wave baseline.
func TestTunedBeatsPerWaveBaseline(t *testing.T) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096}
	tn := NewTuner(plat, 4, hw.AllReduce)
	tn.CandidateLimit = 256
	part, err := tn.Tune(context.Background(), shape, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Plat: plat, NGPUs: 4, Shape: shape, Prim: hw.AllReduce}
	tuned := opts
	tuned.Partition = part
	tunedRes, err := core.Run(context.Background(), tuned)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Run(context.Background(), opts) // nil partition = per-wave
	if err != nil {
		t.Fatal(err)
	}
	if tunedRes.Latency > base.Latency {
		t.Fatalf("tuned %v (%v) lost to per-wave baseline (%v)", part, tunedRes.Latency, base.Latency)
	}
}

func TestPredictionErrorDistribution(t *testing.T) {
	// A reduced version of Fig. 15: prediction errors across shapes and
	// partitions must average in the single digits with a tight CDF.
	plat := hw.A800NVLink()
	var errsPct []float64
	for _, shape := range []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
	} {
		curve := SampleBandwidthCurve(plat, 4, hw.ReduceScatter, nil)
		pred, err := NewPredictor(plat, shape, gemm.Config{}, curve, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range Candidates(pred.Waves, DefaultS1, DefaultSP, 64)[:8] {
			want, err := pred.Predict(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(context.Background(), core.Options{Plat: plat, NGPUs: 4, Shape: shape, Prim: hw.ReduceScatter, Partition: c})
			if err != nil {
				t.Fatal(err)
			}
			errsPct = append(errsPct, 100*math.Abs(float64(res.Latency-want))/float64(res.Latency))
		}
	}
	var mean float64
	for _, e := range errsPct {
		mean += e
	}
	mean /= float64(len(errsPct))
	if mean > 8 {
		t.Fatalf("mean |error| = %.2f%%, want single digits (paper: 3.4%%)", mean)
	}
}
