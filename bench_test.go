// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation as a testing.B benchmark (deliverable d): run
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN/BenchmarkTableN executes the corresponding experiment
// (reduced grids where the full sweep would dominate the run) and reports
// the headline quantity (speedups, error percentages) via b.ReportMetric,
// so the paper-vs-measured comparison in EXPERIMENTS.md can be refreshed
// from one command. Ablation benchmarks beyond the paper's own figures
// cover the design choices DESIGN.md calls out: signaling granularity,
// search-space pruning, swizzle size, and the SM reservation.
package repro

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func BenchmarkFig3WavePattern(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		spread = r.IntraWaveSpreadPct
	}
	b.ReportMetric(spread, "intra-wave-spread-%")
}

func BenchmarkFig4Breakdown(b *testing.B) {
	var arShare float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		arShare = rows[0].Fractions["GEMM+AR"] * 100
	}
	b.ReportMetric(arShare, "llama3-GEMM+AR-%")
}

func BenchmarkFig8BandwidthCurve(b *testing.B) {
	var knee float64
	for i := 0; i < b.N; i++ {
		series := expt.Fig8()
		knee = series[0].Knee / 1e6
	}
	b.ReportMetric(knee, "4090-knee-MB")
}

func BenchmarkFig10OperatorSpeedup(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		groups, _, err := expt.Fig10(context.Background(), true)
		if err != nil {
			b.Fatal(err)
		}
		var xs []float64
		for _, g := range groups {
			xs = append(xs, g.PerM[expt.MethodFlashOverlap].Mean)
		}
		mean = stats.Summarize(xs).Mean
	}
	b.ReportMetric(mean, "flashoverlap-mean-speedup")
}

func BenchmarkFig11TypicalShapes(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		cases, err := expt.Fig11(context.Background(), true)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			if s := c.Speedups[expt.MethodFlashOverlap]; s > best {
				best = s
			}
		}
	}
	b.ReportMetric(best, "max-speedup")
}

func BenchmarkFig12EndToEnd(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		results, err := expt.Fig12(context.Background(), 64)
		if err != nil {
			b.Fatal(err)
		}
		sp = results[0].Speedup
	}
	b.ReportMetric(sp, "llama3-e2e-speedup")
}

func BenchmarkFig13Heatmap(b *testing.B) {
	var worst float64 = 1
	for i := 0; i < b.N; i++ {
		panels, err := expt.Fig13(context.Background(), true)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range panels {
			for _, row := range p.Cells {
				for _, c := range row {
					if c.TheoryRatio < worst {
						worst = c.TheoryRatio
					}
				}
			}
		}
	}
	b.ReportMetric(worst, "min-theory-ratio")
}

func BenchmarkFig14Ablation(b *testing.B) {
	var tuned float64
	for i := 0; i < b.N; i++ {
		cases, err := expt.Fig14(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		tuned = cases[0].Bars[expt.MethodFlashOverlap]
	}
	b.ReportMetric(tuned, "tuned-speedup")
}

func BenchmarkFig15PredictionError(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		results, err := expt.Fig15(context.Background(), false)
		if err != nil {
			b.Fatal(err)
		}
		mean = (results[0].MeanPct + results[1].MeanPct) / 2
	}
	b.ReportMetric(mean, "mean-error-%")
}

func BenchmarkFig16Ascend(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		cases, err := expt.Fig16(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			if s := c.Speedups[expt.MethodFlashOverlap]; s > best {
				best = s
			}
		}
	}
	b.ReportMetric(best, "max-speedup")
}

func BenchmarkTable5Overhead(b *testing.B) {
	var rms float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table5()
		if err != nil {
			b.Fatal(err)
		}
		rms = rows[0].OverheadPct
	}
	b.ReportMetric(rms, "rmsnorm-tile-overhead-%")
}

func BenchmarkCorrectnessE1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := expt.Correctness(context.Background(), 6)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			if !c.AllClose {
				b.Fatalf("correctness failure: %+v", c)
			}
		}
	}
}

// --- Ablation benchmarks for DESIGN.md's design choices -------------------

// Signaling granularity: per-tile signaling fragments communication into
// tiny messages; per-wave fixes bandwidth; tuned grouping wins (§3.2.3).
func BenchmarkAblationSignalGranularity(b *testing.B) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 4096, N: 8192, K: 8192}
	plan, err := gemm.NewPlan(shape, gemm.DefaultConfig(shape))
	if err != nil {
		b.Fatal(err)
	}
	waves := plan.Waves(plat.GPU.SMs - plat.CommSMs)
	cases := map[string]gemm.Partition{
		"per-wave": gemm.PerWave(waves),
		"grouped3": gemm.EqualSized(waves, 3),
		"single":   gemm.SingleGroup(waves),
	}
	for name, part := range cases {
		part := part
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := engine.Default().Exec(context.Background(), core.Options{Plat: plat, NGPUs: 2, Shape: shape, Prim: hw.AllReduce, Partition: part.Clone()})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Latency.Millis()
			}
			b.ReportMetric(last, "latency-ms")
		})
	}
}

// Pruning: the |G1|/|GP| constraints shrink the candidate set without
// hurting the searched quality (§4.1.4).
func BenchmarkAblationPruning(b *testing.B) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 2048, N: 8192, K: 8192}
	curve := tuner.SampleBandwidthCurve(plat, 4, hw.AllReduce, nil)
	pred, err := tuner.NewPredictor(plat, shape, gemm.Config{}, curve, 1)
	if err != nil {
		b.Fatal(err)
	}
	for name, bound := range map[string][2]int{
		"pruned":   {tuner.DefaultS1, tuner.DefaultSP},
		"unpruned": {pred.Waves, pred.Waves},
	} {
		bound := bound
		b.Run(name, func(b *testing.B) {
			var nCands int
			for i := 0; i < b.N; i++ {
				cands := tuner.Candidates(pred.Waves, bound[0], bound[1], 1<<14)
				if _, err := tuner.PredictiveSearch(context.Background(), pred, cands); err != nil {
					b.Fatal(err)
				}
				nCands = len(cands)
			}
			b.ReportMetric(float64(nCands), "candidates")
		})
	}
}

// Swizzle size changes the execution order but — thanks to the reordering —
// not the overlap latency structure.
func BenchmarkAblationSwizzle(b *testing.B) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096}
	for _, sw := range []int{1, 2, 3, 8} {
		sw := sw
		b.Run(fmt.Sprintf("swizzle%d", sw), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := gemm.DefaultConfig(shape)
				cfg.Swizzle = sw
				res, err := engine.Default().Exec(context.Background(), core.Options{Plat: plat, NGPUs: 4, Shape: shape, Cfg: cfg, Prim: hw.AllReduce})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Latency.Millis()
			}
			b.ReportMetric(last, "latency-ms")
		})
	}
}

// SM reservation: how many SMs the collective library holds changes the
// compute/communication balance (Alg. 1 line 3).
func BenchmarkAblationCommSMs(b *testing.B) {
	shape := gemm.Shape{M: 8192, N: 8192, K: 4096}
	for _, smCount := range []int{2, 6, 16, 32} {
		smCount := smCount
		b.Run(fmt.Sprintf("sms%d", smCount), func(b *testing.B) {
			plat := hw.A800NVLink()
			plat.CommSMs = smCount
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := engine.Default().Exec(context.Background(), core.Options{Plat: plat, NGPUs: 4, Shape: shape, Prim: hw.ReduceScatter})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Latency.Millis()
			}
			b.ReportMetric(last, "latency-ms")
		})
	}
}

// Cold compile-every-run core.Run versus cached-plan engine.Exec over the
// quick Table 3 grid — the headline quantity of the Plan/Exec split. The
// reported plan-cache-speedup metric is coldNsPerRun / cachedNsPerRun.
func BenchmarkEnginePlanCacheSpeedup(b *testing.B) {
	var runs []core.Options
	for _, grid := range expt.Table3Grids(true) {
		for _, shape := range grid.Shapes {
			runs = append(runs, core.Options{Plat: grid.Plat, NGPUs: 4, Shape: shape, Prim: grid.Prim, Imbalance: imbalanceFor(grid.Prim)})
		}
	}
	eng := engine.New(1, 0)  // one worker: isolate caching from parallelism
	for _, o := range runs { // warm the plan cache
		if _, err := eng.Exec(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
	var coldNs, cachedNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for _, o := range runs {
			if _, err := core.Run(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
		coldNs += time.Since(start).Nanoseconds()
		start = time.Now()
		for _, o := range runs {
			if _, err := eng.Exec(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
		cachedNs += time.Since(start).Nanoseconds()
	}
	perRun := float64(b.N) * float64(len(runs))
	b.ReportMetric(float64(coldNs)/float64(cachedNs), "plan-cache-speedup")
	b.ReportMetric(float64(coldNs)/perRun, "cold-ns/run")
	b.ReportMetric(float64(cachedNs)/perRun, "cached-ns/run")
	b.Logf("quick Table 3 grid (%d runs): cold core.Run vs cached engine.Exec speedup %.2fx",
		len(runs), float64(coldNs)/float64(cachedNs))
}

// imbalanceFor mirrors the operator evaluation's A2A routing skew.
func imbalanceFor(p hw.Primitive) float64 {
	if p == hw.AllToAll {
		return 1.2
	}
	return 0
}

// Raw simulator throughput: one overlapped run end to end.
func BenchmarkOverlapRunDES(b *testing.B) {
	opts := core.Options{Plat: hw.RTX4090PCIe(), NGPUs: 4, Shape: gemm.Shape{M: 4096, N: 8192, K: 8192}, Prim: hw.AllReduce}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Baseline DES throughput for comparison.
func BenchmarkNonOverlapDES(b *testing.B) {
	opts := baselines.Options{Plat: hw.RTX4090PCIe(), NGPUs: 4, Shape: gemm.Shape{M: 4096, N: 8192, K: 8192}, Prim: hw.AllReduce}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.NonOverlap(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Predictor throughput: one Alg. 1 evaluation (the quantity that replaces a
// ~5 ms online profiling run, §4.1.2).
func BenchmarkPredictorEvaluate(b *testing.B) {
	plat := hw.RTX4090PCIe()
	curve := tuner.SampleBandwidthCurve(plat, 4, hw.AllReduce, nil)
	pred, err := tuner.NewPredictor(plat, gemm.Shape{M: 4096, N: 8192, K: 8192}, gemm.Config{}, curve, 1)
	if err != nil {
		b.Fatal(err)
	}
	part := gemm.EqualSized(pred.Waves, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Predict(part); err != nil {
			b.Fatal(err)
		}
	}
}

// Analytic fast-path throughput: one Algorithm 1 evaluation through the
// engine's plan and bandwidth-curve caches — the per-item cost of a sweep's
// analytic tier, and the quantity that makes mixed-fidelity sweeps cheap.
// Caches are warmed before timing (curve sampling runs ~20 DES probes; that
// is one-time setup, not per-item cost), and the headline analytic-ns/item
// is a fastest-batch measurement so it stays stable at -benchtime 1x.
func BenchmarkEngineAnalyticExec(b *testing.B) {
	var runs []core.Options
	for _, grid := range expt.Table3Grids(true) {
		for _, shape := range grid.Shapes {
			runs = append(runs, core.Options{Plat: grid.Plat, NGPUs: 4, Shape: shape, Prim: grid.Prim, Imbalance: imbalanceFor(grid.Prim), Fidelity: core.FidelityAnalytic})
		}
	}
	eng := engine.New(1, 0)
	for _, o := range runs {
		if r, err := eng.Exec(context.Background(), o); err != nil {
			b.Fatal(err)
		} else if r.Fidelity != core.FidelityAnalytic {
			b.Fatalf("analytic run came back labeled %q", r.Fidelity)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	best := int64(1<<63 - 1)
	for i := 0; i < b.N; i++ {
		const batches = 16
		for batch := 0; batch < batches; batch++ {
			start := time.Now()
			for _, o := range runs {
				if _, err := eng.Exec(context.Background(), o); err != nil {
					b.Fatal(err)
				}
			}
			if ns := time.Since(start).Nanoseconds(); ns < best {
				best = ns
			}
		}
	}
	b.ReportMetric(float64(best)/float64(len(runs)), "analytic-ns/item")
}

// Mixed-fidelity sweep throughput: the quick Table 3 shapes crossed with
// AR/RS/A2A, swept on one engine through engine.MixedBatch (whole grid
// analytic, DES only for the top-k per rank cell) and, for comparison,
// through a full-DES engine.Batch. The headline mixed-sweep-ns/item is a
// fastest-batch measurement over warm caches; mixed-speedup-vs-des is the
// quantity the mixed mode exists for and must stay well above 1.
func BenchmarkMixedFidelitySweep(b *testing.B) {
	runs := quickMixedGrid()
	eng := engine.New(0, 0)
	desRuns := make([]core.Options, len(runs))
	for i, o := range runs {
		o.Fidelity = core.FidelityDES
		desRuns[i] = o
	}
	// Warm both tiers' plan caches and the analytic curve caches.
	if _, _, err := eng.MixedBatch(context.Background(), runs, 0, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Batch(context.Background(), desRuns); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	bestMixed := int64(1<<63 - 1)
	bestDES := int64(1<<63 - 1)
	refinedItems := 0
	for i := 0; i < b.N; i++ {
		const batches = 4
		for batch := 0; batch < batches; batch++ {
			start := time.Now()
			results, refined, err := eng.MixedBatch(context.Background(), runs, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			if ns := time.Since(start).Nanoseconds(); ns < bestMixed {
				bestMixed = ns
			}
			refinedItems = len(refined)
			for j, r := range results {
				if r.Fidelity == "" {
					b.Fatalf("result %d carries no fidelity label", j)
				}
			}
			start = time.Now()
			if _, err := eng.Batch(context.Background(), desRuns); err != nil {
				b.Fatal(err)
			}
			if ns := time.Since(start).Nanoseconds(); ns < bestDES {
				bestDES = ns
			}
		}
	}
	b.ReportMetric(float64(bestMixed)/float64(len(runs)), "mixed-sweep-ns/item")
	b.ReportMetric(float64(bestDES)/float64(len(runs)), "fulldes-sweep-ns/item")
	b.ReportMetric(float64(bestDES)/float64(bestMixed), "mixed-speedup-vs-des")
	b.ReportMetric(float64(refinedItems), "des-refined-items")
}

// Serving-path throughput: a warm Service.Query must answer from the
// concurrent shape cache without searching or compiling. The reported
// hit-rate metric doubles as a regression guard — it must stay at 100%.
func BenchmarkServeWarmQuery(b *testing.B) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 128})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
	}
	if err := svc.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, shapes, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := svc.Query(context.Background(), serve.Query{Shape: shapes[i%len(shapes)], Prim: hw.AllReduce})
		if err != nil {
			b.Fatal(err)
		}
		if ans.Source != serve.SourceCache {
			b.Fatalf("warm query missed the cache (source %q)", ans.Source)
		}
	}
	b.StopTimer()
	st := svc.Stats()
	b.ReportMetric(100*float64(st.Hits)/float64(st.Hits+st.Misses), "warm-hit-%")
	// warm-ns/query is the serve-latency headline the CI bench-diff gate
	// tracks. It must be stable at -benchtime 1x, where a single-shot
	// ns/op swings far more than the gate's regression threshold: probe in
	// fixed-size batches and report the fastest batch, which measures the
	// code path rather than whatever else the machine was doing.
	const batches, perBatch = 16, 512
	best := int64(1<<63 - 1)
	for batch := 0; batch < batches; batch++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			if _, err := svc.Query(context.Background(), serve.Query{Shape: shapes[i%len(shapes)], Prim: hw.AllReduce}); err != nil {
				b.Fatal(err)
			}
		}
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
	}
	b.ReportMetric(float64(best)/perBatch, "warm-ns/query")
}

// Sharded sweep throughput: the quick Table 3 grid swept by one Coordinator
// per platform, each over four fresh in-process replicas (LocalClients, cold
// plan caches), must merge back to one result per run. The benchmark
// reports per-run cost at fleet width 4 so the perf record tracks the
// sharding overhead, not just raw DES speed.
func BenchmarkShardSweepBatch(b *testing.B) {
	var grids [][]core.Options // one per platform
	for _, grid := range expt.Table3Grids(true) {
		if len(grids) == 0 || grids[len(grids)-1][0].Plat.Name != grid.Plat.Name {
			grids = append(grids, nil)
		}
		for _, shape := range grid.Shapes {
			grids[len(grids)-1] = append(grids[len(grids)-1], core.Options{Plat: grid.Plat, NGPUs: 4, Shape: shape, Prim: grid.Prim, Imbalance: imbalanceFor(grid.Prim)})
		}
	}
	const shards = 4
	runs := 0
	for _, g := range grids {
		runs += len(g)
	}
	b.ResetTimer()
	var sweepNs int64
	for i := 0; i < b.N; i++ {
		for _, g := range grids {
			co := localCoordinator(b, g[0].Plat, g[0].NGPUs, shards)
			start := time.Now()
			results, err := co.Sweep(context.Background(), sweepItems(g))
			if err != nil {
				b.Fatal(err)
			}
			sweepNs += time.Since(start).Nanoseconds()
			if len(results) != len(g) {
				b.Fatalf("%d results for %d runs", len(results), len(g))
			}
		}
	}
	b.ReportMetric(float64(sweepNs)/(float64(b.N)*float64(runs)), "sweep-ns/run")
	b.ReportMetric(shards, "shards")
}

// Concurrent serving throughput: the RWMutex-guarded cache must scale warm
// queries across goroutines (the old slice cache serialized or raced here).
func BenchmarkServeConcurrentQuery(b *testing.B) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 128})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
	}
	if err := svc.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, shapes, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := svc.Query(context.Background(), serve.Query{Shape: shapes[i%len(shapes)], Prim: hw.AllReduce}); err != nil {
				// FailNow/Fatal must not run on a RunParallel worker.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// Distributed-sweep coordinator throughput: the quick Table 3 AR shapes
// dispatched in chunks across an in-process fleet (LocalClients, no
// network), so the number isolates the coordinator's partition/chunk/merge
// machinery plus the replicas' sweep execution rather than HTTP transport.
// The reported sweep-ns/item is the chunked, AllReduce-only counterpart
// of BenchmarkShardSweepBatch's sweep-ns/run.
func BenchmarkCoordinatorSweep(b *testing.B) {
	const shards = 4
	curve := tuner.SampleBandwidthCurve(hw.RTX4090PCIe(), 2, hw.AllReduce, nil)
	clients := make([]shard.Client, shards)
	for k := range clients {
		a := shard.Assignment{Index: k, Count: shards}
		svc, err := serve.New(serve.Config{
			Plat:           hw.RTX4090PCIe(),
			NGPUs:          2,
			CandidateLimit: 128,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         map[hw.Primitive]*stats.Curve{hw.AllReduce: curve},
		})
		if err != nil {
			b.Fatal(err)
		}
		clients[k] = &shard.LocalClient{Svc: svc}
	}
	router, err := shard.NewRouter(clients)
	if err != nil {
		b.Fatal(err)
	}
	co := shard.NewCoordinator(router)
	co.Spec.Chunk = 4
	var items []serve.SweepItem
	for _, grid := range expt.Table3Grids(true) {
		if grid.Prim != hw.AllReduce {
			continue
		}
		for _, s := range grid.Shapes {
			items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
		}
	}
	if len(items) == 0 {
		b.Fatal("quick Table 3 grid has no AllReduce shapes")
	}
	b.ResetTimer()
	var sweepNs int64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		results, err := co.Sweep(context.Background(), items)
		if err != nil {
			b.Fatal(err)
		}
		sweepNs += time.Since(start).Nanoseconds()
		if len(results) != len(items) {
			b.Fatalf("%d results for %d items", len(results), len(items))
		}
	}
	if co.Redispatches() != 0 {
		b.Fatalf("%d re-dispatches on a healthy in-process fleet", co.Redispatches())
	}
	b.ReportMetric(float64(sweepNs)/(float64(b.N)*float64(len(items))), "sweep-ns/item")
	b.ReportMetric(shards, "shards")
}

// Streaming sweep cost: the v2 iterator path (Coordinator.Stream emitting
// each item as its chunk completes) over an in-process fleet at the analytic
// fast path, where per-item work is small enough that the streaming
// machinery's own cost shows. stream-sweep-ns/item is the latency headline;
// stream-sweep-bytes/item (TotalAlloc delta per item) pins the bounded-
// memory claim — the coordinator must allocate O(chunk) per item in flight,
// not O(grid), so the figure may not grow with the grid.
func BenchmarkStreamingSweep(b *testing.B) {
	const shards = 4
	curve := tuner.SampleBandwidthCurve(hw.RTX4090PCIe(), 2, hw.AllReduce, nil)
	clients := make([]shard.Client, shards)
	for k := range clients {
		a := shard.Assignment{Index: k, Count: shards}
		svc, err := serve.New(serve.Config{
			Plat:           hw.RTX4090PCIe(),
			NGPUs:          2,
			CandidateLimit: 128,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         map[hw.Primitive]*stats.Curve{hw.AllReduce: curve},
		})
		if err != nil {
			b.Fatal(err)
		}
		clients[k] = &shard.LocalClient{Svc: svc}
	}
	router, err := shard.NewRouter(clients)
	if err != nil {
		b.Fatal(err)
	}
	co := shard.NewCoordinator(router)
	co.Spec.Chunk = 4
	co.Spec.Fidelity = serve.FidelityAnalytic
	var items []serve.SweepItem
	for _, grid := range expt.Table3Grids(true) {
		if grid.Prim != hw.AllReduce {
			continue
		}
		for _, s := range grid.Shapes {
			items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
		}
	}
	// Warm the replicas' analytic predictor caches so the steady-state
	// streaming path is what gets measured.
	if _, err := co.Sweep(context.Background(), items); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	bestNs := int64(1<<63 - 1)
	var allocBytes, sweeps uint64
	for i := 0; i < b.N; i++ {
		// Min-of-batches for the latency (stable at -benchtime 1x), mean
		// for the allocation (TotalAlloc is monotonic and deterministic).
		const batches = 4
		for batch := 0; batch < batches; batch++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			n := 0
			seen := make([]bool, len(items))
			err := co.Stream(context.Background(), items, func(idx int, res shard.SweepResult) error {
				// Emissions interleave across shards by completion; each
				// index must still arrive exactly once.
				if seen[idx] {
					b.Errorf("index %d emitted twice", idx)
				}
				seen[idx] = true
				n++
				return nil
			})
			elapsed := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				b.Fatal(err)
			}
			if n != len(items) {
				b.Fatalf("%d emissions for %d items", n, len(items))
			}
			if elapsed < bestNs {
				bestNs = elapsed
			}
			allocBytes += after.TotalAlloc - before.TotalAlloc
			sweeps++
		}
	}
	b.ReportMetric(float64(bestNs)/float64(len(items)), "stream-sweep-ns/item")
	b.ReportMetric(float64(allocBytes)/float64(sweeps)/float64(len(items)), "stream-sweep-bytes/item")
	b.ReportMetric(shards, "shards")
}

// deadClient refuses every request instantly: the degraded-fleet
// benchmark's pre-dead replica.
type deadClient struct{}

var errDeadReplica = errors.New("bench: replica is down")

func (deadClient) Query(context.Context, serve.Query) (serve.Answer, error) {
	return serve.Answer{}, errDeadReplica
}
func (deadClient) Sweep(context.Context, serve.SweepRequest, serve.SweepSink) error {
	return errDeadReplica
}
func (deadClient) Stats(context.Context) (serve.Stats, error) { return serve.Stats{}, errDeadReplica }
func (deadClient) Healthz(context.Context) error              { return errDeadReplica }

// BenchmarkCoordinatorSweepDegraded sweeps the same grid with one replica
// of the fleet dead from the start: the health plane must absorb the loss
// in ~one failed probe, so degraded-ns/item stays within sight of the
// healthy sweep-ns/item instead of scaling with chunks x timeout.
func BenchmarkCoordinatorSweepDegraded(b *testing.B) {
	const shards = 4
	const dead = 0
	curve := tuner.SampleBandwidthCurve(hw.RTX4090PCIe(), 2, hw.AllReduce, nil)
	clients := make([]shard.Client, shards)
	for k := range clients {
		if k == dead {
			clients[k] = deadClient{}
			continue
		}
		a := shard.Assignment{Index: k, Count: shards}
		svc, err := serve.New(serve.Config{
			Plat:           hw.RTX4090PCIe(),
			NGPUs:          2,
			CandidateLimit: 128,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         map[hw.Primitive]*stats.Curve{hw.AllReduce: curve},
		})
		if err != nil {
			b.Fatal(err)
		}
		clients[k] = &shard.LocalClient{Svc: svc}
	}
	var items []serve.SweepItem
	for _, grid := range expt.Table3Grids(true) {
		if grid.Prim != hw.AllReduce {
			continue
		}
		for _, s := range grid.Shapes {
			items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
		}
	}
	if len(items) == 0 {
		b.Fatal("quick Table 3 grid has no AllReduce shapes")
	}
	b.ResetTimer()
	var sweepNs int64
	var skips uint64
	for i := 0; i < b.N; i++ {
		// A fresh router/health plane per iteration: every iteration
		// discovers the dead replica from scratch (one failed probe),
		// so the metric is comparable at any -benchtime.
		router, err := shard.NewRouter(clients)
		if err != nil {
			b.Fatal(err)
		}
		co := shard.NewCoordinator(router)
		co.Spec.Chunk = 1 // chunk per item: every dead-owned item is a chance to stall
		start := time.Now()
		results, err := co.Sweep(context.Background(), items)
		if err != nil {
			b.Fatal(err)
		}
		sweepNs += time.Since(start).Nanoseconds()
		if len(results) != len(items) {
			b.Fatalf("%d results for %d items", len(results), len(items))
		}
		if co.Redispatches() == 0 {
			b.Fatal("no chunk left the dead replica; is the dead shard empty?")
		}
		skips += router.Health().Skips()
	}
	b.ReportMetric(float64(sweepNs)/(float64(b.N)*float64(len(items))), "degraded-ns/item")
	b.ReportMetric(float64(skips)/float64(b.N), "skipped-attempts")
}

// Zero-alloc warm path: a query whose reply was pre-encoded at tune time is
// answered by handing out cached bytes — no JSON rendering, no predictor
// call, and (the headline) no allocations. warm-allocs/query must stay at 0;
// the paired latency metric tracks the fast path against warm-ns/query's
// slow-path rendering above.
func BenchmarkServeWarmQueryEncoded(b *testing.B) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 128})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
	}
	if err := svc.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, shapes, 0); err != nil {
		b.Fatal(err)
	}
	queries := make([]serve.Query, len(shapes))
	for i, s := range shapes {
		queries[i] = serve.Query{Shape: s, Prim: hw.AllReduce}
		if _, ok := svc.QueryEncoded(queries[i]); !ok {
			b.Fatalf("warmed shape %v missed the encoded fast path", s)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := svc.QueryEncoded(queries[i%len(queries)]); !ok {
			b.Fatal("encoded fast path went cold mid-benchmark")
		}
	}
	b.StopTimer()
	// Pre-create the tenant so the alloc probe below measures the steady
	// state: the first labeled request creates the tenant's instruments
	// (allocates, once per tenant), every later one takes the read-locked
	// map hit.
	svc.ObserveQuery("bench-tenant", time.Microsecond, true)
	// Measured after ResetTimer: ResetTimer deletes user-reported metrics.
	// The closure covers the full warm answer path as http.go runs it —
	// cached-bytes lookup plus latency recording, both unlabeled and
	// per-tenant. warm-allocs/query staying 0 is the gate that metrics
	// recording never bought observability with warm-path allocations.
	allocs := testing.AllocsPerRun(512, func() {
		for _, q := range queries {
			if _, ok := svc.QueryEncoded(q); !ok {
				b.Fatal("encoded fast path went cold mid-benchmark")
			}
			svc.ObserveQuery("", time.Microsecond, true)
			svc.ObserveQuery("bench-tenant", time.Microsecond, true)
		}
	})
	b.ReportMetric(allocs/float64(len(queries)), "warm-allocs/query")
	// Same min-of-batches discipline as warm-ns/query: stable at -benchtime 1x.
	const batches, perBatch = 16, 4096
	best := int64(1<<63 - 1)
	for batch := 0; batch < batches; batch++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			if _, ok := svc.QueryEncoded(queries[i%len(queries)]); !ok {
				b.Fatal("encoded fast path went cold mid-benchmark")
			}
		}
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
	}
	b.ReportMetric(float64(best)/perBatch, "warm-encoded-ns/query")
}

// Restart economics: booting a replica from a warm-state snapshot versus
// re-tuning its working set from scratch. cold-restart-to-warm-ms is the
// headline (snapshot boot: New + LoadSnapshotFile, after which every
// snapshotted query answers warm on the fast path); retune-restart-to-warm-ms
// is the same working set rebuilt with Warm, the cost a replica without a
// snapshot pays on every restart.
func BenchmarkSnapshotRestart(b *testing.B) {
	cfg := serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 128}
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 2048, N: 8192, K: 8192},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
		{M: 8192, N: 8192, K: 4096},
		{M: 8192, N: 8192, K: 8192},
	}
	prims := []hw.Primitive{hw.AllReduce, hw.AllToAll}
	src, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.Warm(context.Background(), prims, shapes, 0); err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/warm.json"
	if err := src.SaveSnapshotFile(path); err != nil {
		b.Fatal(err)
	}
	wantWarm := src.Stats().ShapesCached

	const reps = 5
	bestSnap, bestTune := int64(1<<63-1), int64(1<<63-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			svc, err := serve.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			n, err := svc.LoadSnapshotFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if ns := time.Since(start).Nanoseconds(); ns < bestSnap {
				bestSnap = ns
			}
			if n != wantWarm || svc.Stats().WarmEncoded != wantWarm {
				b.Fatalf("snapshot boot restored %d entries (%d encoded), want %d", n, svc.Stats().WarmEncoded, wantWarm)
			}

			start = time.Now()
			retuned, err := serve.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := retuned.Warm(context.Background(), prims, shapes, 0); err != nil {
				b.Fatal(err)
			}
			if ns := time.Since(start).Nanoseconds(); ns < bestTune {
				bestTune = ns
			}
		}
	}
	b.ReportMetric(float64(bestSnap)/1e6, "cold-restart-to-warm-ms")
	b.ReportMetric(float64(bestTune)/1e6, "retune-restart-to-warm-ms")
	b.ReportMetric(float64(bestTune)/float64(bestSnap), "restart-speedup-vs-retune")
}

// inprocTransport serves requests straight into the handler — no TCP, no
// real connection — so BenchmarkLoadgenReplay measures the loadgen pipeline
// and the serving path, not a loopback network stack. With record set it
// times every request; the gate computes the exact (sort-based, not
// bucket-quantized) p99 from the samples, because a log-bucketed quantile
// moves in sqrt(2) steps — larger than the bench gate's 25% threshold.
type inprocTransport struct {
	handler http.Handler

	mu      sync.Mutex
	record  bool
	samples []time.Duration
}

func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := time.Now()
	t.handler.ServeHTTP(rec, req)
	if t.record {
		d := time.Since(start)
		t.mu.Lock()
		t.samples = append(t.samples, d)
		t.mu.Unlock()
	}
	return rec.Result(), nil
}

// p99 drains the recorded samples and returns their exact 99th percentile.
func (t *inprocTransport) p99() time.Duration {
	t.mu.Lock()
	samples := t.samples
	t.samples = nil
	t.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	return samples[len(samples)*99/100]
}

// Trace-driven replay throughput: the cmd/loadgen pipeline (synthesized
// 3-tenant bursty trace, open-loop unpaced replay, per-tenant accounting)
// against a warm single-process service over an in-process transport.
// loadgen-p99-ms is the client-observed p99 of a warm replay — the
// multi-tenant serving tail, headline because the per-tenant percentile
// plane exists to watch exactly this number. loadgen-qps is the offered
// throughput the replay sustained.
func BenchmarkLoadgenReplay(b *testing.B) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 128})
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Synth(workload.SynthConfig{Seed: 1, Duration: 2 * time.Second, QPS: 100})
	if len(trace.Events) == 0 {
		b.Fatal("synth produced an empty trace")
	}
	transport := &inprocTransport{handler: serve.Handler(svc)}
	opts := workload.ReplayOptions{
		Target: "http://inproc",
		Client: &http.Client{Transport: transport},
		// Speedup 0: no pacing — measure how fast the pipeline moves the
		// trace, not how patiently it can wait.
	}
	ctx := context.Background()
	// First replay tunes every distinct (shape, prim, imbalance) in the
	// trace; everything after answers warm.
	if rep, err := workload.Replay(ctx, opts, trace); err != nil {
		b.Fatal(err)
	} else if rep.Errors > 0 {
		b.Fatalf("warmup replay: %d errors", rep.Errors)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Replay(ctx, opts, trace); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Min-of-batches for the tail, max for throughput: both stable at
	// -benchtime 1x, same discipline as warm-encoded-ns/query.
	const batches = 8
	bestP99 := time.Duration(1<<63 - 1)
	bestQPS := 0.0
	transport.record = true
	for batch := 0; batch < batches; batch++ {
		rep, err := workload.Replay(ctx, opts, trace)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("replay batch %d: %d errors", batch, rep.Errors)
		}
		if rep.Sent != uint64(len(trace.Events)) {
			b.Fatalf("replay batch %d sent %d of %d events", batch, rep.Sent, len(trace.Events))
		}
		if p99 := transport.p99(); p99 < bestP99 {
			bestP99 = p99
		}
		if qps := float64(rep.Sent) / rep.Elapsed.Seconds(); qps > bestQPS {
			bestQPS = qps
		}
	}
	transport.record = false
	b.ReportMetric(float64(bestP99)/1e6, "loadgen-p99-ms")
	b.ReportMetric(bestQPS, "loadgen-qps")
}
