// Command perfbench is the repository's end-to-end benchmark. It builds the
// system the way users run it — two serve.Service replicas behind
// serve.Handler and a shard.Router over shard.HTTPClients, each on a real
// loopback listener — inside one process, drives one seeded workload from
// a generator in that process, checks every answer, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones, from a traced run that
// records spans at every layer boundary and times direct calls into the
// tuner, engine and wire codec. Run it from the repository root:
//
//	bash perfbench/run.sh --workload query-hot --seed 1 --seconds 10 --trace 0
//
// It exits non-zero on any failed operation or correctness mismatch.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit; the lists mirror
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"first_result_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"mem_rss_p90_mb", "MB"},
}

var perLayer = []metricDef{
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"query.p99_ms", "ms"},
	{"client.hop_p50_us", "us"},
	{"route.self_p50_us", "us"},
	{"route.hop_p50_us", "us"},
	{"route.failovers", "count"},
	{"serve.query_p50_us", "us"},
	{"serve.query_p99_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.encoded_share", "ratio"},
	{"serve.nn_share", "ratio"},
	{"serve.tunes_per_kq", "count"},
	{"serve.collapse_ratio", "ratio"},
	{"serve.retune_share", "ratio"},
	{"tuner.lookup_p50_us", "us"},
	{"tuner.predict_p50_us", "us"},
	{"tuner.tune_p50_ms", "ms"},
	{"tuner.tune_p99_ms", "ms"},
	{"shard.chunk_p50_ms", "ms"},
	{"shard.coord_self_ms", "ms"},
	{"shard.redispatches", "count"},
	{"wire.bytes_per_item", "B"},
	{"wire.encode_p50_us", "us"},
	{"wire.decode_p50_us", "us"},
	{"sweep.analytic_phase_ms", "ms"},
	{"sweep.des_phase_ms", "ms"},
	{"sweep.des_share", "ratio"},
	{"serve.sweep_chunk_p50_ms", "ms"},
	{"engine.exec_des_p50_us", "us"},
	{"engine.exec_analytic_p50_us", "us"},
	{"engine.compile_p50_us", "us"},
	{"engine.plan_hit_ratio", "ratio"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_kb_per_op", "KB"},
	{"proc.gc_per_kop", "count"},
	{"proc.heap_peak_mb", "MB"},
	{"setup.curve_ms", "ms"},
	{"setup.warm_s", "s"},
	{"trace.overhead_pct", "%"},
}

// report collects one run's outcome.
type report struct {
	inputs            string
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	lines             []string
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// problem records a correctness failure that failed n operations.
func (r *report) problem(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: query-hot, query-dynamic, sweep-stream, sweep-oracle")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if err := selfCheck(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: self-check:", err)
		return 1
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	e := &env{
		name:    w.name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		out:     &report{e2e: make(map[string]float64), layer: make(map[string]float64)},
	}
	defs := endToEnd
	if *traced == 1 {
		// Room for every span of a traced half at the nominal rates: four
		// per query, with a margin.
		e.tr = newTracer(int(20000 * max(*seconds, 2)))
		defs = perLayer
	}
	fmt.Printf("workload %s: %s\n  loads: %s\n", w.name, w.why, w.layers)
	fmt.Printf("GOMAXPROCS %d, seed %d, %v measured, trace %d\n", runtime.GOMAXPROCS(0), e.seed, e.seconds, *traced)
	ctx := context.Background()
	start := time.Now()
	e.rss = sampleRSS()
	err := w.run(ctx, e)
	// A run that got as far as recording memory has already stopped the
	// sampler and reported its error; this stops it on the other paths.
	_, _ = e.rss.finish()
	fmt.Printf("inputs digest %s\n", e.out.inputs)
	for _, l := range e.out.lines {
		fmt.Println(" ", l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := e.out.e2e
	if *traced == 1 {
		values = e.out.layer
	}
	res := jsonResult{Attempted: e.out.attempted, Failed: e.out.failed, Metrics: make(map[string]jsonMetric)}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-28s %14.4f %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		e.out.problems = append(e.out.problems, "unmeasured metrics: "+strings.Join(missing, ", "))
	}
	for _, p := range e.out.problems {
		fmt.Println("MISMATCH:", p)
	}
	res.Correct = len(e.out.problems) == 0 && res.Failed == 0 && res.Attempted > 0
	fmt.Printf("operations attempted %d, failed %d, run took %.1f s\n", res.Attempted, res.Failed, time.Since(start).Seconds())
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
