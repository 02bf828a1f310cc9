package core

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gemm"
	"repro/internal/gpu"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// testPlat is a shrunken RTX 4090 profile so small functional shapes still
// execute in multiple waves: 8 SMs, 2 reserved for communication.
func testPlat() hw.Platform {
	p := hw.RTX4090PCIe()
	p.GPU.SMs = 8
	p.CommSMs = 2
	return p
}

// smallOpts builds a functional run: 16x24x5 output with 4x8 tiles = 12
// tiles over 6 usable SMs = 2 waves.
func smallOpts(prim hw.Primitive, n int) Options {
	return Options{
		Plat:       testPlat(),
		NGPUs:      n,
		Shape:      gemm.Shape{M: 16, N: 24, K: 5},
		Cfg:        gemm.Config{TileM: 4, TileN: 8, Swizzle: 2},
		Prim:       prim,
		Functional: true,
		Seed:       7,
	}
}

// refSum computes sum_d(A_d * B_d) from the run's actual inputs.
func refSum(r *Result, n int) *tensor.Matrix {
	sum := tensor.New(r.Plan.Shape.M, r.Plan.Shape.N)
	for d := 0; d < n; d++ {
		c := tensor.New(r.Plan.Shape.M, r.Plan.Shape.N)
		gemm.ComputeReference(c, r.InputA(d), r.InputB(d), nil)
		sum.AddInPlace(c)
	}
	return sum
}

// The paper's claim C1: the overlapped result is mathematically equivalent
// to the non-overlap implementation ("all close"; exact here because the
// reduction order is preserved).
func TestAllReduceCorrectness(t *testing.T) {
	for _, n := range []int{2, 4} {
		o := smallOpts(hw.AllReduce, n)
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		want := refSum(res, n)
		for d := 0; d < n; d++ {
			got := res.AROutput(d)
			if !got.Equal(want) {
				t.Fatalf("n=%d dev %d: overlapped AllReduce differs, max diff %v", n, d, got.MaxDiff(want))
			}
		}
	}
}

func TestAllReduceCorrectnessAcrossPartitions(t *testing.T) {
	for _, part := range []gemm.Partition{{2}, {1, 1}} {
		o := smallOpts(hw.AllReduce, 2)
		o.Partition = part.Clone()
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		want := refSum(res, 2)
		if !res.AROutput(0).Equal(want) {
			t.Fatalf("partition %v: result differs", part)
		}
	}
}

func TestAllReduceFusedRMSNorm(t *testing.T) {
	o := smallOpts(hw.AllReduce, 2)
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	sum := refSum(res, 2)
	weight := make([]float32, o.Shape.N)
	for i := range weight {
		weight[i] = 1 + 0.25*float32(i%3)
	}
	want := tensor.New(o.Shape.M, o.Shape.N)
	tensor.RMSNorm(want, sum, weight, 1e-6)
	got := res.AROutputFusedRMSNorm(0, weight, 1e-6)
	if !got.AllClose(want, 1e-5, 1e-5) {
		t.Fatalf("fused RMSNorm differs, max diff %v", got.MaxDiff(want))
	}
}

func TestReduceScatterCorrectness(t *testing.T) {
	for _, n := range []int{2, 4} {
		o := smallOpts(hw.ReduceScatter, n)
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		sum := refSum(res, n)
		sl := res.RSLayout()
		for d := 0; d < n; d++ {
			local := res.RSLocal(d)
			for lr := 0; lr < local.Rows; lr++ {
				gr := sl.GlobalRowOf(d, lr)
				for c := 0; c < local.Cols; c++ {
					if local.At(lr, c) != sum.At(gr, c) {
						t.Fatalf("n=%d dev %d local row %d (global %d) col %d wrong", n, d, lr, gr, c)
					}
				}
			}
		}
	}
}

func TestAllToAllCorrectness(t *testing.T) {
	n := 2
	o := smallOpts(hw.AllToAll, n)
	o.Routing = make([][]int, n)
	for i := range o.Routing {
		o.Routing[i] = make([]int, o.Shape.M)
		for r := range o.Routing[i] {
			o.Routing[i][r] = (r + i) % n // deterministic mixed routing
		}
	}
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	fulls := make([]*tensor.Matrix, n)
	for d := 0; d < n; d++ {
		fulls[d] = tensor.New(o.Shape.M, o.Shape.N)
		gemm.ComputeReference(fulls[d], res.InputA(d), res.InputB(d), nil)
	}
	ex := res.A2AExchangeLayout()
	for d := 0; d < n; d++ {
		got := res.A2AOutput(d)
		want := ex.ReferenceOutput(d, fulls)
		if !got.Equal(want) {
			t.Fatalf("dev %d A2A output differs, max diff %v", d, got.MaxDiff(want))
		}
	}
}

func TestGroupTimelineOrdering(t *testing.T) {
	o := smallOpts(hw.AllReduce, 2)
	o.Partition = gemm.Partition{1, 1}
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	g0, g1 := res.Groups[0], res.Groups[1]
	if g0.SignalAt <= 0 || g1.SignalAt <= g0.SignalAt {
		t.Fatalf("signal times not increasing: %v, %v", g0.SignalAt, g1.SignalAt)
	}
	if g0.CommEnd <= g0.SignalAt || g1.CommEnd <= g0.CommEnd {
		t.Fatalf("comm ends out of order: %+v %+v", g0, g1)
	}
	if res.Latency != g1.CommEnd {
		t.Fatalf("Latency %v != last group end %v", res.Latency, g1.CommEnd)
	}
	if res.GEMMEnd <= 0 || res.GEMMEnd > res.Latency {
		t.Fatalf("GEMMEnd %v outside (0, %v]", res.GEMMEnd, res.Latency)
	}
	// Group 1's communication can only start after its signal, and the
	// first group overlaps with the remaining computation.
	if g0.CommEnd >= res.Latency {
		t.Fatal("first group's communication did not overlap")
	}
}

// Overlap must beat sequential execution on a communication-heavy platform
// and realistic shape (the headline claim, Fig. 10).
func TestOverlapBeatsSerial(t *testing.T) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 2048, N: 8192, K: 8192}
	plan, err := gemm.NewPlan(shape, gemm.DefaultConfig(shape))
	if err != nil {
		t.Fatal(err)
	}
	cm := gemm.NewCostModel(plat.GPU)
	serial := cm.Duration(plan, plat.GPU.SMs) +
		plat.Link.CollectiveTime(hw.AllReduce, float64(shape.OutputBytes()), 2)

	trueSMs := plat.GPU.SMs - plat.CommSMs
	tWaves := plan.Waves(trueSMs)
	res, err := Run(context.Background(), Options{
		Plat:      plat,
		NGPUs:     2,
		Shape:     shape,
		Prim:      hw.AllReduce,
		Partition: gemm.EqualSized(tWaves, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Speedup(serial)
	if sp < 1.1 {
		t.Fatalf("overlap speedup = %.3f (overlap %v vs serial %v), want > 1.1", sp, res.Latency, serial)
	}
	if sp > 2.0 {
		t.Fatalf("speedup %.3f implausibly high — paper caps at 1.65x", sp)
	}
}

// A misconfigured wave size (+20, as in Fig. 14) computes the counting
// thresholds with the wrong wave width, so group boundaries overshoot true
// wave boundaries: signals fire late and the carefully sized tail group is
// distorted. In the compute-bound regime the tuned partition keeps a small
// last group (short tail); the misconfiguration inflates it and must lose.
func TestMisconfiguredWaveSizeDegrades(t *testing.T) {
	plat := hw.A800NVLink()
	shape := gemm.Shape{M: 4096, N: 8192, K: 16384}
	trueSMs := plat.GPU.SMs - plat.CommSMs
	plan, err := gemm.NewPlan(shape, gemm.DefaultConfig(shape))
	if err != nil {
		t.Fatal(err)
	}
	tWaves := plan.Waves(trueSMs)
	// A head/tail-optimized partition like the tuner produces.
	part := gemm.Partition{1, tWaves - 3, 2}
	base := Options{Plat: plat, NGPUs: 2, Shape: shape, Prim: hw.AllReduce, Partition: part}
	good, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	mis := base
	mis.Partition = part.Clone()
	mis.WaveSizeOverride = trueSMs + 20
	bad, err := Run(context.Background(), mis)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Latency <= good.Latency {
		t.Fatalf("misconfigured wave size (%v) beat correct one (%v)", bad.Latency, good.Latency)
	}
	// The first group's signal must also fire strictly later: its
	// threshold overshoots the first true wave.
	if bad.Groups[0].SignalAt <= good.Groups[0].SignalAt {
		t.Fatalf("misconfigured first signal %v not delayed vs %v",
			bad.Groups[0].SignalAt, good.Groups[0].SignalAt)
	}
}

func TestTheoreticalBoundIsLowerBound(t *testing.T) {
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 8192},
		{M: 4096, N: 8192, K: 2048},
		{M: 8192, N: 8192, K: 12288},
	}
	for _, plat := range []hw.Platform{hw.RTX4090PCIe(), hw.A800NVLink()} {
		for _, s := range shapes {
			o := Options{Plat: plat, NGPUs: 4, Shape: s, Prim: hw.AllReduce}
			bound, err := TheoreticalBound(o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Latency < bound {
				t.Fatalf("%s %v: measured %v beat theoretical bound %v", plat.Name, s, res.Latency, bound)
			}
			// The tuned system reaches >50% of the bound even untuned.
			if float64(bound)/float64(res.Latency) < 0.3 {
				t.Fatalf("%s %v: only %.2f of bound — model badly off", plat.Name, s, float64(bound)/float64(res.Latency))
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	valid := smallOpts(hw.AllReduce, 2)
	cases := map[string]func(o Options) Options{
		"one-gpu":    func(o Options) Options { o.NGPUs = 1; return o },
		"allgather":  func(o Options) Options { o.Prim = hw.AllGather; return o },
		"bad-shape":  func(o Options) Options { o.Shape.M = 0; return o },
		"bad-part":   func(o Options) Options { o.Partition = gemm.Partition{99}; return o },
		"rs-divide":  func(o Options) Options { o.Prim = hw.ReduceScatter; o.NGPUs = 3; return o },
		"a2a-route":  func(o Options) Options { o.Prim = hw.AllToAll; return o },
		"imbalance":  func(o Options) Options { o.Imbalance = 0.5; return o },
		"wave-size":  func(o Options) Options { o.WaveSizeOverride = -3; return o },
		"tile-shape": func(o Options) Options { o.Cfg = gemm.Config{TileM: 5, TileN: 8}; return o },
	}
	for name, mut := range cases {
		if _, err := Run(context.Background(), mut(valid)); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	o := Options{Plat: hw.RTX4090PCIe(), NGPUs: 4, Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllReduce}
	a, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.GEMMEnd != b.GEMMEnd {
		t.Fatalf("runs differ: %v/%v vs %v/%v", a.Latency, a.GEMMEnd, b.Latency, b.GEMMEnd)
	}
}

func TestNonFunctionalAccessorsPanic(t *testing.T) {
	o := Options{Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllReduce}
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AROutput on non-functional run did not panic")
		}
	}()
	res.AROutput(0)
}

func TestImbalancedA2ATakesLonger(t *testing.T) {
	base := Options{Plat: hw.RTX4090PCIe(), NGPUs: 4, Shape: gemm.Shape{M: 4096, N: 8192, K: 4096}, Prim: hw.AllToAll}
	bal, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.Imbalance = 1.8
	imb, err := Run(context.Background(), hot)
	if err != nil {
		t.Fatal(err)
	}
	if imb.Latency <= bal.Latency {
		t.Fatalf("imbalanced A2A (%v) should exceed balanced (%v)", imb.Latency, bal.Latency)
	}
}

// Property: for random small shapes, partitions, and rank counts, every
// primitive's functional output equals its sequential reference. This is
// the repository-wide C1 property test.
func TestFunctionalEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, primPick, nPick, partPick uint8) bool {
		prim := []hw.Primitive{hw.AllReduce, hw.ReduceScatter, hw.AllToAll}[primPick%3]
		n := 2 + 2*int(nPick%2) // 2 or 4
		o := smallOpts(prim, n)
		o.Seed = seed
		if partPick%2 == 0 {
			o.Partition = gemm.Partition{1, 1}
		} else {
			o.Partition = gemm.Partition{2}
		}
		if prim == hw.AllToAll {
			o.Routing = make([][]int, n)
			for i := range o.Routing {
				o.Routing[i] = make([]int, o.Shape.M)
				for r := range o.Routing[i] {
					o.Routing[i][r] = int((seed + uint64(r*3+i)) % uint64(n))
				}
			}
		}
		res, err := Run(context.Background(), o)
		if err != nil {
			return false
		}
		switch prim {
		case hw.AllReduce:
			return res.AROutput(0).Equal(refSum(res, n))
		case hw.ReduceScatter:
			sum := refSum(res, n)
			sl := res.RSLayout()
			for d := 0; d < n; d++ {
				local := res.RSLocal(d)
				for lr := 0; lr < local.Rows; lr++ {
					gr := sl.GlobalRowOf(d, lr)
					for c := 0; c < local.Cols; c++ {
						if local.At(lr, c) != sum.At(gr, c) {
							return false
						}
					}
				}
			}
			return true
		default:
			fulls := make([]*tensor.Matrix, n)
			for d := 0; d < n; d++ {
				fulls[d] = tensor.New(o.Shape.M, o.Shape.N)
				gemm.ComputeReference(fulls[d], res.InputA(d), res.InputB(d), nil)
			}
			ex := res.A2AExchangeLayout()
			for d := 0; d < n; d++ {
				if !res.A2AOutput(d).Equal(ex.ReferenceOutput(d, fulls)) {
					return false
				}
			}
			return true
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// One DES execution allocates per device and per group, not per event, in
// a fresh world. In a reused world it allocates seven objects: the Result,
// its Partition and Groups, and each of the four devices' GEMM launch. The
// 4-GPU, 17-group plan below made 1456 allocations when the event heap
// boxed every event and every stream op built its own closures, and 441
// when every execution built its own world.
func TestExecAllocatesPerDeviceAndGroup(t *testing.T) {
	c, err := Compile(Options{Plat: hw.RTX4090PCIe(), NGPUs: 4,
		Shape: gemm.Shape{M: 4096, N: 8192, K: 4096}, Prim: hw.AllReduce})
	if err != nil {
		t.Fatal(err)
	}
	if g := len(c.bounds); g != 17 {
		t.Fatalf("plan has %d groups, want 17", g)
	}
	v := c.DefaultVariant()
	exec := func(w *world) func() {
		return func() {
			if _, err := c.exec(context.Background(), w, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { exec(new(world))() }); allocs > 600 {
		t.Errorf("Exec in a fresh world made %v allocations, want at most 600", allocs)
	}
	if allocs := testing.AllocsPerRun(20, exec(new(world))); allocs > 7 {
		t.Errorf("Exec in a reused world made %v allocations, want at most 7", allocs)
	}
}

// The trace of a 2-GPU, 2-group run: each device's GEMM on its compute
// stream and one collective per group on its comm stream, at the times the
// simulator has always produced.
func TestTraceSpansGolden(t *testing.T) {
	o := Options{Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: gemm.Shape{M: 2048, N: 8192, K: 8192},
		Prim: hw.AllReduce, Partition: gemm.Partition{5, 4}, Trace: true}
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	want := []gpu.Span{
		{Device: 0, Stream: "compute", Name: "gemm+epilogue", Start: 0, End: 1299168, SMs: 124},
		{Device: 0, Stream: "comm", Name: "AR/G1", Start: 724000, End: 2426582, SMs: 4},
		{Device: 0, Stream: "comm", Name: "AR/G2", Start: 2428000, End: 3608175, SMs: 4},
		{Device: 1, Stream: "compute", Name: "gemm+epilogue", Start: 0, End: 1263417, SMs: 124},
		{Device: 1, Stream: "comm", Name: "AR/G1", Start: 724000, End: 2426582, SMs: 4},
		{Device: 1, Stream: "comm", Name: "AR/G2", Start: 2428000, End: 3608175, SMs: 4},
	}
	if !reflect.DeepEqual(res.Trace, want) {
		t.Fatalf("trace spans:\n got %+v\nwant %+v", res.Trace, want)
	}
}
