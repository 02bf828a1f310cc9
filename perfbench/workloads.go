package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// workload is one seeded traffic mix. Each records why it exists and which
// layers it loads; WORKLOADS.md next to this file gives the shares measured
// on it.
type workload struct {
	name   string
	why    string
	layers string
	run    func(ctx context.Context, e *env) error
}

var workloads = []workload{
	{
		name: "query-hot",
		why: "Every request is an exact key the fleet warmed, so HTTP, the router's parse, ring walk and re-encode, " +
			"and the replicas' pre-encoded answers do all the work; a router change shows here and a tuner change must not.",
		layers: "generator, loopback HTTP, shard.Router, serve.Handler warm path",
		run: func(ctx context.Context, e *env) error {
			shapes := warmShapes()
			n := streamLen(e.seconds)
			q := newQueries(shapes, uniformKeys(e.seed, n, len(shapes)), tenantsFor(e.seed, n), arrivals(e.seed, n))
			return runQueries(ctx, e, q, nil, hotRate)
		},
	},
	{
		name: "query-dynamic",
		why: "Skewed popularity over a shape universe 2.8x the fleet's shape caches writes the caches query-hot only reads: " +
			"neighbour scans with a predictor rebuild per neighbour hit, tunes, LRU evictions, pre-encode stores and drops.",
		layers: "everything query-hot loads, plus serve.Service.Query, the tuner's shape cache, Algorithm 1 and the partition search",
		run: func(ctx context.Context, e *env) error {
			shapes := universe()
			n := streamLen(e.seconds)
			keys := popularKeys(e.seed, fillRequests+n, len(shapes))
			tenants := tenantsFor(e.seed, fillRequests+n)
			gaps := arrivals(e.seed, n)
			fill := newQueries(shapes, keys[:fillRequests], tenants[:fillRequests], nil)
			q := newQueries(shapes, keys[fillRequests:], tenants[fillRequests:], gaps)
			return runQueries(ctx, e, q, fill, dynamicRate)
		},
	},
	{
		name: "sweep-stream",
		why: "A mixed-fidelity v2 sweep through shard.Coordinator.Stream, the cmd/sweep path: the coordinator and the NDJSON codec " +
			"of core.Result dominate it, and neither query workload touches them.",
		layers: "shard.Coordinator, shard.HTTPClient v2 streams, serve.SweepChunk, engine analytic and DES backends",
		run:    runSweeps,
	},
	{
		name: "sweep-oracle",
		why: "The paper's Fig. 15 study at full scale, predictive against exhaustive search: the only workload where the simulator " +
			"and the engine's plan compile do most of the work.",
		layers: "internal/expt, engine.Batch and plan cache, core compile, the simulator, tuner prediction and search",
		run:    runOracle,
	},
}

// Query workload parameters. The nominal rates, which the traced run's
// open-loop generator offers, sit at about a tenth of each workload's
// saturation throughput on a 2-CPU host.
const (
	hotRate     = 4000.0
	dynamicRate = 2500.0
	// fillRequests is the dynamic workload's cache-fill warm-up, sent
	// closed-loop before timing so misses have reached their steady share.
	fillRequests = 20000
	// rounds is how many fleets a timed run builds in turn, measuring each
	// for an equal share of the run. Each build settles into a steady
	// state of its own: on a 2-CPU host, sweeps on one build ran about 10%
	// slower than on the next for the build's whole life, while 25 s
	// windows of one long-lived build agreed within 3%. Taking a run's
	// figures over several builds keeps that out of its result, and the
	// builds are also the run's set-up samples.
	rounds = 5
	// buildsPerRound is how many times a round builds its fleet, keeping
	// the last, so setup_s is a median of ten builds spread over the run.
	// A round whose set-up includes the dynamic workload's cache fill
	// builds once.
	buildsPerRound = 2
	// warmupPasses is how many Fig. 15 passes sweep-oracle's set-up makes,
	// the first of them cold; setup_s is their median.
	warmupPasses = 9
	// sweepTopK sets enough DES confirmations per rank cell that the DES
	// tier is a visible share of the sweep.
	sweepTopK = 100
	// probeShapes sizes the one traced sweep run for workloads that do not
	// sweep, so every per-layer metric is defined on every traced run.
	probeShapes = 128
)

// streamLen sizes a query stream to last a run of length d at 12k req/s,
// about a run's average on a 2-CPU host, before it wraps.
func streamLen(d time.Duration) int { return int(12000 * max(d.Seconds(), 10)) }

// env is one run's settings and report.
type env struct {
	name    string
	seed    uint64
	seconds time.Duration
	tr      *tracer     // non-nil on a traced run
	rss     *rssSampler // running from the start of the run
	out     *report
}

// recordSetup reports the fleet set-up metrics: setup_s is the median of
// the run's builds, the per-layer split is the kept build's.
func (e *env) recordSetup(f *fleet, durs []float64) {
	e.out.e2e["setup_s"] = median(durs)
	e.out.layer["setup.curve_ms"] = ms(f.curveDur)
	e.out.layer["setup.warm_s"] = f.warmDur.Seconds()
	e.out.note("setup: builds %v ms, median %.3f s (curve %.2f ms, warm %.3f s)", rounded(scaled(durs, 1e3)), median(durs), ms(f.curveDur), f.warmDur.Seconds())
}

// recordMem reports the 90th percentile of the process's resident set,
// sampled from the start of set-up; workloads call it when their timed
// phase ends, before the correctness checks. The maximum is set by a rare
// spike when the garbage collector falls behind a burst of allocation: on
// sweep-oracle it spread 0.16-0.24 (interquartile range over median)
// across runs, against 0.01-0.03 for the 90th percentile.
func (e *env) recordMem() error {
	mb, err := e.rss.finish()
	if err != nil {
		return err
	}
	e.out.e2e["mem_rss_p90_mb"] = percentile(mb, 90)
	e.out.note("resident set: %d samples, p50 %.1f MB, p90 %.1f MB, max %.1f MB", len(mb), percentile(mb, 50), percentile(mb, 90), percentile(mb, 100))
	return nil
}

func (e *env) phase(label string, p *phase) {
	e.out.attempted += p.attempted
	e.out.failed += p.failed
	rate := "closed loop"
	if p.rate > 0 {
		rate = fmt.Sprintf("%.0f req/s offered", p.rate)
	}
	e.out.note("%s: %s, %d sent, %d failed, p50 %.3f ms, p99 %.3f ms, lag p50 %.3f ms p99 %.3f ms, backlog %d, %.0f req/s done",
		label, rate, p.attempted, p.failed, p.p50, p.p99, p.lag50, p.lag99, p.backlog,
		float64(p.attempted-p.failed)/p.elapsed.Seconds())
}

// runQueries runs a query workload: either the timed rounds, or one fleet
// built, warmed (and filled) for the traced run's halves at the nominal
// rate.
func runQueries(ctx context.Context, e *env, q, fill *queries, rate float64) error {
	d := newDigest(e.name, e.seed)
	d.ints(q.keys)
	d.floats(q.gaps)
	d.bytes(q.tenants)
	if fill != nil {
		d.ints(fill.keys)
	}
	e.out.inputs = d.hex()
	if e.tr == nil {
		return e.measureQueries(ctx, q, fill)
	}

	f, g, setups, err := queryFleet(ctx, fill, e.tr)
	if err != nil {
		return err
	}
	defer f.close()
	defer g.close()
	e.recordSetup(f, setups)
	untraced, traced, proc := e.queryLayers(ctx, f, g, q, rate, e.seconds)
	for k, v := range proc {
		e.out.layer[k] = v
	}
	e.out.layer["trace.overhead_pct"] = 100 * (traced.p50/untraced.p50 - 1)
	if err := e.sweepProbe(ctx, f); err != nil {
		return err
	}
	if err := e.direct(ctx, f); err != nil {
		return err
	}
	e.checkQueries(g, q, f)
	return nil
}

// queryFleet builds a query workload's fleet with a load generator on its
// router, buildsPerRound times, keeping the last. With fill set, each
// build is followed by the dynamic workload's closed-loop cache fill,
// which counts as set-up, and the fleet is built once.
func queryFleet(ctx context.Context, fill *queries, tr *tracer) (*fleet, *loadgen, []float64, error) {
	reps := buildsPerRound
	if fill != nil {
		reps = 1
	}
	var g *loadgen
	f, setups, err := setup(ctx, reps, warmShapes(), tr, func(f *fleet) error {
		if g != nil {
			g.close()
		}
		g = newLoadgen(f.routerURL, tr)
		if fill == nil {
			return nil
		}
		p := g.closed(ctx, fill, len(fill.keys), g.workers, time.Hour)
		if p.failed > 0 {
			return fmt.Errorf("cache fill: %d of %d requests failed", p.failed, p.attempted)
		}
		return nil
	})
	if err != nil {
		if g != nil {
			g.close()
		}
		return nil, nil, nil, err
	}
	return f, g, setups, nil
}

// measureQueries is a query workload's timed run: rounds in turn, each on
// a freshly built (and filled) fleet, sending requests one at a time over
// one connection for a slice and then saturating the fleet over every
// connection for a slice of the same length, both closed-loop. Over the
// windows of all rounds it reports the quietPct percentile of the
// one-connection p50 latency, and the 100-quietPct percentile of the
// saturation throughput: requests completed per second with every
// connection busy, the highest rate the fleet sustains without a growing
// backlog.
//
// Latency is taken one request at a time, not at an open-loop nominal
// rate: at 2500 req/s the CPUs idle between requests and most of a
// request's 0.18 ms p50 was the host waking them, which across ten runs
// spread 0.15-0.40 (interquartile range over median); back to back the
// same requests took 0.04 ms. The traced run keeps the open-loop
// generator, for its lag and tail.
//
// A closed-loop window is the same work as the next to within about 1%:
// on query-dynamic a saturated window's ~1100 misses tune shapes whose
// tunes take 0.04 ms at the median and 0.75 ms at p99, against ~70 us of
// HTTP and routing per request, so slower windows lost time to the host.
// Across ten runs the 10th percentile of one-connection windows spread
// 0.13, their median 0.20.
//
// Every distinct reply is checked once the rounds are done.
func (e *env) measureQueries(ctx context.Context, q, fill *queries) error {
	slice := e.seconds / (2 * rounds)
	var (
		setups, p50s, xs []float64 // p50s and xs per window
		gens             []*loadgen
		f                *fleet
	)
	for r := 0; r < rounds; r++ {
		var (
			g    *loadgen
			durs []float64
			err  error
		)
		if f, g, durs, err = queryFleet(ctx, fill, nil); err != nil {
			return err
		}
		setups = append(setups, durs...)
		gens = append(gens, g)
		before := f.stats()
		l := g.closed(ctx, q, len(q.keys), 1, slice)
		e.phase(fmt.Sprintf("round %d one connection", r), l)
		c := g.closed(ctx, q, len(q.keys), g.workers, slice)
		e.phase(fmt.Sprintf("round %d saturation", r), c)
		e.queryShares(before, f.stats())
		p50s = append(p50s, l.p50s...)
		xs = append(xs, c.rates...)
		g.close()
		endRound(f)
	}
	if len(p50s) == 0 || len(xs) == 0 {
		return fmt.Errorf("a run of %v leaves no whole %v window in a slice; give it at least %v", e.seconds, window, 2*rounds*window)
	}
	if err := e.recordMem(); err != nil {
		return err
	}
	e.recordSetup(f, setups)
	if fill != nil {
		e.out.note("cache fill: %d requests closed-loop before each round", len(fill.keys))
	}
	e.out.e2e["first_result_ms"] = percentile(p50s, quietPct)
	e.out.e2e["throughput_per_s"] = percentile(xs, 100-quietPct)
	e.out.note("p50 one request at a time per %v window: %v us, p%d %.4f ms, median %.4f ms",
		window, rounded(scaled(p50s, 1e3)), quietPct, percentile(p50s, quietPct), median(p50s))
	e.out.note("saturation over %d connections per %v window: %v req/s, p%d %.0f, median %.0f",
		gens[0].workers, window, rounded(xs), 100-quietPct, percentile(xs, 100-quietPct), median(xs))
	for _, g := range gens {
		e.checkQueries(g, q, f)
	}
	return nil
}

// endRound closes a round's fleet and collects its garbage, so the next
// round builds on the same heap the first one did.
func endRound(f *fleet) {
	f.close()
	runtime.GC()
}

func (e *env) checkQueries(g *loadgen, q *queries, f *fleet) {
	bad, why := checkReplies(g, q.shapes, f.curves[hw.AllReduce])
	e.out.note("checked %d distinct /query replies against Algorithm 1: %d requests got a wrong reply", len(g.replies), bad)
	for _, w := range why {
		e.out.problem(0, "%s", w)
	}
	e.out.failed += bad
}

// queryLayers runs the query phase twice at the nominal rate, untraced
// then traced, and records the query path's per-layer metrics.
// It returns the process costs of the untraced half.
func (e *env) queryLayers(ctx context.Context, f *fleet, g *loadgen, q *queries, rate float64, dur time.Duration) (untraced, traced *phase, proc map[string]float64) {
	before := f.stats()
	a := readProc()
	heap := sampleHeap()
	untraced = g.open(ctx, q, rate, dur/2)
	peak := heap.finish()
	b := readProc()
	e.phase("untraced", untraced)
	proc = procMetrics(a, b, untraced.attempted, peak)
	e.tr.reset()
	e.tr.on.Store(true)
	traced = g.open(ctx, q, rate, dur/2)
	e.tr.on.Store(false)
	e.phase("traced", traced)
	after := f.stats()

	sp := analyze(e.tr.recorded())
	e.out.note("trace: %d spans kept, %d dropped", len(e.tr.recorded()), e.tr.dropped.Load())
	e.out.layer["gen.lag_p50_ms"] = untraced.lag50
	e.out.layer["gen.lag_p99_ms"] = untraced.lag99
	e.out.layer["query.p99_ms"] = untraced.p99
	e.out.layer["client.hop_p50_us"] = percentile(sp.self[spanRequest], 50) / 1e3
	e.out.layer["route.self_p50_us"] = percentile(sp.self[spanRouteQuery], 50) / 1e3
	e.out.layer["route.hop_p50_us"] = percentile(sp.self[spanClientQuery], 50) / 1e3
	e.out.layer["serve.query_p50_us"] = percentile(sp.dur[spanServeQuery], 50) / 1e3
	e.out.layer["serve.query_p99_us"] = percentile(sp.dur[spanServeQuery], 99) / 1e3
	e.out.layer["route.failovers"] = float64(f.router.Stats(ctx).Failovers)

	e.queryShares(before, after)
	e.out.layer["serve.retune_share"] = ratio(float64(g.retunes), float64(g.tunedAnswers))
	return untraced, traced, proc
}

// queryShares records how the replicas answered the queries between two
// stats snapshots: exact keys from pre-encoded bytes, nearest-neighbour
// hits, and misses that tuned.
func (e *env) queryShares(before, after serve.Stats) {
	queries := float64(after.Hits + after.Misses - before.Hits - before.Misses)
	hits := float64(after.Hits - before.Hits)
	encoded := float64(after.EncodedHits - before.EncodedHits)
	misses := float64(after.Misses - before.Misses)
	e.out.layer["serve.hit_ratio"] = ratio(hits, queries)
	e.out.layer["serve.encoded_share"] = ratio(encoded, queries)
	e.out.layer["serve.nn_share"] = ratio(hits-encoded, queries)
	e.out.layer["serve.tunes_per_kq"] = 1000 * ratio(float64(after.Tunes-before.Tunes), queries)
	e.out.layer["serve.collapse_ratio"] = ratio(float64(after.Collapsed-before.Collapsed), misses)
	e.out.note("shares over %.0f queries: exact %.4f, neighbour %.4f, miss %.4f", queries,
		ratio(encoded, queries), ratio(hits-encoded, queries), ratio(misses, queries))
}

// queryProbe gives a workload that sends no queries its query-path
// per-layer metrics: a short phase of the dynamic workload's stream,
// without its cache fill.
func (e *env) queryProbe(ctx context.Context, f *fleet) {
	shapes := universe()
	n := streamLen(2 * time.Second)
	q := newQueries(shapes, popularKeys(e.seed, n, len(shapes)), tenantsFor(e.seed, n), arrivals(e.seed, n))
	g := newLoadgen(f.routerURL, e.tr)
	defer g.close()
	e.queryLayers(ctx, f, g, q, dynamicRate, 2*time.Second)
	e.checkQueries(g, q, f)
}

// sweepProbe gives a workload that does not sweep its sweep-path
// per-layer metrics: one small traced sweep.
func (e *env) sweepProbe(ctx context.Context, f *fleet) error {
	items := sweepGrid(e.seed, probeShapes)
	co := newCoordinator(f)
	before := f.stats().Engine
	e.tr.reset()
	e.tr.on.Store(true)
	run := sweepOnce(ctx, e.tr, co, items, true)
	e.tr.on.Store(false)
	if run.err != nil {
		return run.err
	}
	ref, err := mixedReference(ctx, items, sweepTopK, f.curves)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	e.out.attempted += len(items)
	if run.digest != ref {
		e.out.problem(len(items), "probe sweep merge differs from in-process engine.MixedBatch")
	}
	return e.sweepLayers(f, co, []*sweepRun{run}, before)
}

// direct times the tuner, engine and codec layers with direct calls on the
// seed's inputs: the dynamic workload's shapes against the fleet's caches,
// and the sweep workload's items.
func (e *env) direct(ctx context.Context, f *fleet) error {
	tm, err := tunerTimings(ctx, f, universe(), popularKeys(e.seed, 20*directSamples, len(universe())))
	if err != nil {
		return err
	}
	em, err := engineTimings(ctx, sweepGrid(e.seed, probeShapes), f.curves)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{tm, em} {
		for k, v := range m {
			e.out.layer[k] = v
		}
	}
	return nil
}

// sweepRun is one timed Coordinator.Stream over the grid and the digest of
// its merged results.
type sweepRun struct {
	dur, first time.Duration
	digest     [32]byte
	results    []shard.SweepResult // kept only when asked, for the codec timings
	err        error
}

func newCoordinator(f *fleet) *shard.Coordinator {
	co := shard.NewCoordinator(f.router)
	co.Spec = shard.SweepSpec{Fidelity: serve.FidelityMixed, TopK: sweepTopK}
	return co
}

// sweepOnce streams the grid once, then digests the merged results.
func sweepOnce(ctx context.Context, tr *tracer, co *shard.Coordinator, items []serve.SweepItem, keep bool) *sweepRun {
	results := make([]shard.SweepResult, len(items))
	run := &sweepRun{}
	start := time.Now()
	run.err = tr.stream(ctx, co, items, func(i int, res shard.SweepResult) error {
		if run.first == 0 {
			run.first = time.Since(start)
		}
		results[i] = res
		return nil
	})
	run.dur = time.Since(start)
	if run.err == nil {
		run.digest, run.err = resultsDigest(coreResults(results))
	}
	if keep {
		run.results = results
	}
	return run
}

// sweeps streams the grid through co one sweep at a time, for at least dur
// and at least twice; only the last run keeps its results, when keepLast
// asks for them.
func sweeps(ctx context.Context, tr *tracer, co *shard.Coordinator, items []serve.SweepItem, dur time.Duration, keepLast bool) []*sweepRun {
	var runs []*sweepRun
	for start := time.Now(); len(runs) < 2 || time.Since(start) < dur; {
		if n := len(runs); n > 0 {
			runs[n-1].results = nil
		}
		runs = append(runs, sweepOnce(ctx, tr, co, items, keepLast))
	}
	return runs
}

// runSweeps is the sweep-stream workload: one client streams the mixed
// grid through the coordinator, one sweep at a time, for the run's length.
// A timed run sweeps on a fresh fleet in each of its rounds and reports
// the quietPct percentile of the time to the first result over all of its
// sweeps, and the 100-quietPct percentile of their items per second.
func runSweeps(ctx context.Context, e *env) error {
	items := sweepGrid(e.seed, len(universe()))
	d := newDigest(e.name, e.seed)
	for _, it := range items {
		d.u64(uint64(it.M)<<40 | uint64(it.N)<<20 | uint64(it.K))
		d.bytes([]byte(it.Prim))
	}
	e.out.inputs = d.hex()

	var (
		runs   []*sweepRun
		setups []float64
		f      *fleet
	)
	if e.tr == nil {
		for r := 0; r < rounds; r++ {
			var (
				durs []float64
				err  error
			)
			if f, durs, err = setup(ctx, buildsPerRound, warmShapes(), nil, nil); err != nil {
				return err
			}
			setups = append(setups, durs...)
			runs = append(runs, sweeps(ctx, nil, newCoordinator(f), items, e.seconds/rounds, false)...)
			endRound(f)
		}
		if err := e.recordMem(); err != nil {
			return err
		}
		e.recordSetup(f, setups)
		rates, firsts := sweepRates(runs, len(items))
		e.out.e2e["throughput_per_s"] = percentile(rates, 100-quietPct)
		e.out.e2e["first_result_ms"] = percentile(firsts, quietPct)
		e.out.note("%d sweeps of %d items over %d fleets: items/s %v, first result ms %v", len(runs), len(items), rounds, rounded(rates), rounded(firsts))
		e.out.note("first result p%d %.1f ms, median %.1f ms; items/s p%d %.0f, median %.0f",
			quietPct, percentile(firsts, quietPct), median(firsts), 100-quietPct, percentile(rates, 100-quietPct), median(rates))
	} else {
		var err error
		if f, setups, err = setup(ctx, buildsPerRound, warmShapes(), e.tr, nil); err != nil {
			return err
		}
		defer f.close()
		e.recordSetup(f, setups)
		co := newCoordinator(f)
		a := readProc()
		heap := sampleHeap()
		untraced := sweeps(ctx, e.tr, co, items, e.seconds/2, false)
		peak := heap.finish()
		b := readProc()
		for k, v := range procMetrics(a, b, len(untraced)*len(items), peak) {
			e.out.layer[k] = v
		}
		before := f.stats().Engine
		e.tr.reset()
		e.tr.on.Store(true)
		traced := sweeps(ctx, e.tr, co, items, e.seconds/2, true)
		e.tr.on.Store(false)
		uRates, _ := sweepRates(untraced, len(items))
		tRates, _ := sweepRates(traced, len(items))
		e.out.layer["trace.overhead_pct"] = 100 * (median(uRates)/median(tRates) - 1)
		if err := e.sweepLayers(f, co, traced, before); err != nil {
			return err
		}
		e.queryProbe(ctx, f)
		if err := e.direct(ctx, f); err != nil {
			return err
		}
		runs = append(untraced, traced...)
	}

	ref, err := mixedReference(ctx, items, sweepTopK, f.curves)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	for _, r := range runs {
		e.out.attempted += len(items)
		if r.err != nil {
			e.out.problem(len(items), "sweep: %v", r.err)
		} else if r.digest != ref {
			e.out.problem(len(items), "sweep merge differs from in-process engine.MixedBatch (digest %x, want %x)", r.digest[:8], ref[:8])
		}
	}
	e.out.note("checked %d sweeps byte for byte against in-process engine.MixedBatch", len(runs))
	return nil
}

func coreResults(rs []shard.SweepResult) []*core.Result {
	out := make([]*core.Result, len(rs))
	for i, r := range rs {
		out[i] = r.Result
	}
	return out
}

func sweepRates(runs []*sweepRun, items int) (rates, firsts []float64) {
	for _, r := range runs {
		rates = append(rates, float64(items)/r.dur.Seconds())
		firsts = append(firsts, ms(r.first))
	}
	return rates, firsts
}

// sweepLayers records the sweep path's per-layer metrics from the traced
// sweeps' spans and the frames they delivered.
// Engine counters are taken relative to before.
func (e *env) sweepLayers(f *fleet, co *shard.Coordinator, runs []*sweepRun, before engine.Stats) error {
	sp := analyze(e.tr.recorded())
	var analyticPhase, desPhase []float64
	desItems, allItems := 0, 0
	for _, st := range sp.streams {
		analyticPhase = append(analyticPhase, ms(time.Duration(st.analytic.hi-st.analytic.lo)))
		desPhase = append(desPhase, ms(time.Duration(st.des.hi-st.des.lo)))
		desItems += st.desItems
		allItems += st.items
	}
	e.out.layer["shard.chunk_p50_ms"] = percentile(sp.dur[spanChunk], 50) / 1e6
	e.out.layer["shard.coord_self_ms"] = percentile(sp.self[spanStream], 50) / 1e6
	e.out.layer["shard.redispatches"] = float64(co.Redispatches())
	e.out.layer["serve.sweep_chunk_p50_ms"] = percentile(sp.dur[spanServeSweep], 50) / 1e6
	e.out.layer["sweep.analytic_phase_ms"] = median(analyticPhase)
	e.out.layer["sweep.des_phase_ms"] = median(desPhase)
	e.out.layer["sweep.des_share"] = ratio(float64(desItems), float64(allItems))
	e.out.layer["wire.bytes_per_item"] = ratio(float64(e.tr.wireBytes.Load()), float64(allItems+desItems))
	st := f.stats().Engine
	hits, misses := float64(st.Hits-before.Hits), float64(st.Misses-before.Misses)
	e.out.layer["engine.plan_hit_ratio"] = ratio(hits, hits+misses)
	e.out.note("sweep shares: analytic %.4f, DES %.4f of %d items", 1-ratio(float64(desItems), float64(allItems)), ratio(float64(desItems), float64(allItems)), allItems)

	var frames []serve.SweepFrame
	last := runs[len(runs)-1]
	step := max(len(last.results)/directSamples, 1)
	for i := 0; i < len(last.results); i += step {
		r := last.results[i].SweepResult
		frames = append(frames, serve.SweepFrame{Frame: serve.FrameResult, Index: i, Fidelity: r.Fidelity, Result: &r})
	}
	wm, err := wireTimings(frames)
	if err != nil {
		return err
	}
	for k, v := range wm {
		e.out.layer[k] = v
	}
	return nil
}

// oraclePass runs expt.Fig15 at full scale once and counts the engine
// executions it made from the default engine's plan-cache counters.
func oraclePass(ctx context.Context) (time.Duration, uint64, uint64, []expt.Fig15Result, error) {
	h0, m0, _ := engine.Default().CacheStats()
	start := time.Now()
	res, err := expt.Fig15(ctx, true)
	dur := time.Since(start)
	h1, m1, _ := engine.Default().CacheStats()
	return dur, h1 + m1 - h0 - m0, h1 - h0, res, err
}

// runOracle is the sweep-oracle workload: Fig. 15 repeated in-process.
func runOracle(ctx context.Context, e *env) error {
	e.out.inputs = newDigest(e.name, e.seed).hex() + " (fixed grid: Fig. 15 at full scale)"
	var want string
	pass := func() (time.Duration, uint64, uint64, error) {
		dur, execs, hits, res, err := oraclePass(ctx)
		if err != nil {
			return 0, 0, 0, err
		}
		e.out.attempted += int(execs)
		got := oracleDigest(res)
		if want == "" {
			want = got
			for _, r := range res {
				e.out.note("fig15 %s: %d combinations, mean error %.3f%%, p95 %.3f%%, min search quality %.5f, digest %s",
					r.Plat, len(r.ErrorsPct), r.MeanPct, r.P95Pct, r.MinQuality, got)
			}
		}
		if err := checkOracle(res); err != nil {
			e.out.problem(int(execs), "%v", err)
		} else if got != want {
			e.out.problem(int(execs), "fig15 pass digest %s differs from the first pass's %s", got, want)
		}
		return dur, execs, hits, nil
	}
	// Set-up is the warm-up passes, the first of them cold.
	var setups []float64
	for i := 0; i < warmupPasses; i++ {
		dur, _, _, err := pass()
		if err != nil {
			return err
		}
		setups = append(setups, dur.Seconds())
	}
	e.out.e2e["setup_s"] = median(setups)
	passes := func(d time.Duration) (times, rates []float64, execs, hits uint64, err error) {
		for start := time.Now(); len(times) < 2 || time.Since(start) < d; {
			dur, n, h, err := pass()
			if err != nil {
				return nil, nil, 0, 0, err
			}
			times = append(times, ms(dur))
			rates = append(rates, float64(n)/dur.Seconds())
			execs += n
			hits += h
		}
		return times, rates, execs, hits, nil
	}
	if e.tr == nil {
		times, rates, execs, _, err := passes(e.seconds)
		if err != nil {
			return err
		}
		if err := e.recordMem(); err != nil {
			return err
		}
		e.out.e2e["first_result_ms"] = percentile(times, quietPct)
		e.out.e2e["throughput_per_s"] = percentile(rates, 100-quietPct)
		e.out.note("%d passes, %d engine executions: pass ms %v", len(times), execs, rounded(times))
		e.out.note("pass p%d %.1f ms, median %.1f ms", quietPct, percentile(times, quietPct), median(times))
		return nil
	}

	a := readProc()
	heap := sampleHeap()
	uTimes, _, execs, _, err := passes(e.seconds / 2)
	peak := heap.finish()
	b := readProc()
	if err != nil {
		return err
	}
	for k, v := range procMetrics(a, b, int(execs), peak) {
		e.out.layer[k] = v
	}
	e.tr.reset()
	e.tr.on.Store(true)
	tTimes, _, execs, hits, err := passes(e.seconds / 2)
	e.tr.on.Store(false)
	if err != nil {
		return err
	}
	e.out.layer["trace.overhead_pct"] = 100 * (median(tTimes)/median(uTimes) - 1)
	planHit := ratio(float64(hits), float64(execs))

	f, _, err := setup(ctx, 1, warmShapes(), e.tr, nil)
	if err != nil {
		return err
	}
	defer f.close()
	e.out.layer["setup.curve_ms"] = ms(f.curveDur)
	e.out.layer["setup.warm_s"] = f.warmDur.Seconds()
	e.queryProbe(ctx, f)
	if err := e.sweepProbe(ctx, f); err != nil {
		return err
	}
	if err := e.direct(ctx, f); err != nil {
		return err
	}
	e.out.layer["engine.plan_hit_ratio"] = planHit
	return nil
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}
