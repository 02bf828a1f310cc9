// Command loadgen replays a multi-tenant workload trace against a cmd/serve
// replica or a cmd/route fleet and reports what the server-side metrics
// plane measured for each tenant: queries, hit rate, and p50/p95/p99
// latency, read off /stats after the replay (and therefore merged across
// every replica when the target is a router).
//
// The workload comes from a v1 NDJSON trace file (-trace, see
// docs/OPERATIONS.md for the format) or from the deterministic synthesizer
// (-synth): three tenant archetypes — AllReduce over small decode shapes,
// ReduceScatter over large prefill shapes, AllToAll with a 1.5 hot-expert
// imbalance — arriving as independent bursty on/off streams. -write saves
// the synthesized trace so a CI run or a colleague can replay the exact
// same workload.
//
// Replay is open-loop: events fire at their trace offsets (scaled by
// -speedup, or replaced by a fixed -rate) whether or not earlier requests
// have answered, bounded by -max-inflight. The exit status is the check:
// non-zero if any trace tenant is missing from /stats or has an empty
// latency histogram — the signal CI uses to catch a metrics-plane
// regression.
//
// Examples:
//
//	loadgen -synth -duration 5s -qps 200 -target http://localhost:8080
//	loadgen -synth -seed 7 -write trace.ndjson           # generate only
//	loadgen -trace trace.ndjson -speedup 10 -target http://localhost:8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	var (
		target      = flag.String("target", "", "base URL of a serve replica or route fleet (empty with -write: just generate the trace)")
		tracePath   = flag.String("trace", "", "v1 NDJSON trace file to replay (\"-\" reads stdin; mutually exclusive with -synth)")
		synth       = flag.Bool("synth", false, "synthesize a deterministic bursty multi-tenant trace instead of reading one")
		tenants     = flag.Int("tenants", 3, "synthetic tenant count (tenant i cycles through the AR/RS/A2A archetypes)")
		duration    = flag.Duration("duration", 10*time.Second, "synthetic trace length in trace time")
		qps         = flag.Float64("qps", 50, "synthetic aggregate mean arrival rate during on-phases")
		burst       = flag.Float64("burst", 4, "synthetic on/off burstiness factor (1 = steady arrivals)")
		seed        = flag.Int64("seed", 1, "synthesizer seed; equal seeds give byte-identical traces")
		write       = flag.String("write", "", "write the trace (synthesized or loaded) to this file before replaying")
		speedup     = flag.Float64("speedup", 1, "trace-time compression: 10 replays a 10s trace in 1s; 0 disables pacing entirely")
		rate        = flag.Float64("rate", 0, "fixed open-loop request rate overriding trace timing (0 = use trace offsets)")
		maxInflight = flag.Int("max-inflight", 16, "bound on concurrent in-flight requests")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout (covers a cold-shape tune)")
		jsonOut     = flag.Bool("json", false, "emit the final report as JSON instead of the table")
	)
	flag.Parse()

	tr, err := loadTrace(*tracePath, *synth, workload.SynthConfig{
		Tenants: *tenants, Duration: *duration, QPS: *qps, Burst: *burst, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(tr.Events) == 0 {
		log.Fatal("loadgen: trace has no events")
	}
	if *write != "" {
		f, err := os.Create(*write)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.WriteTrace(f, tr); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %d events (%s of trace time) to %s\n", len(tr.Events), tr.Duration().Round(time.Millisecond), *write)
	}
	if *target == "" {
		if *write != "" {
			return // generate-only invocation
		}
		log.Fatal("loadgen: -target is required (or -write to only generate a trace)")
	}

	client := shard.NewHTTPClient(*timeout, *maxInflight)
	ctx := context.Background()
	rep, err := workload.Replay(ctx, workload.ReplayOptions{
		Target:      *target,
		Client:      client,
		Speedup:     *speedup,
		Rate:        *rate,
		MaxInflight: *maxInflight,
	}, tr)
	if err != nil {
		log.Fatal(err)
	}

	merged, err := fetchStats(ctx, client, *target)
	if err != nil {
		log.Fatal(err)
	}
	report, ok := buildReport(tr, rep, merged)
	report.Target = *target
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
	} else {
		printReport(report)
	}
	if !ok {
		log.Fatal("loadgen: FAIL: at least one trace tenant has no latency histogram in /stats")
	}
}

func loadTrace(path string, synth bool, cfg workload.SynthConfig) (workload.Trace, error) {
	switch {
	case synth && path != "":
		return workload.Trace{}, fmt.Errorf("loadgen: -trace and -synth are mutually exclusive")
	case synth:
		return workload.Synth(cfg), nil
	case path == "-":
		return workload.ReadTrace(os.Stdin)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return workload.Trace{}, err
		}
		defer f.Close()
		return workload.ReadTrace(f)
	default:
		return workload.Trace{}, fmt.Errorf("loadgen: need -trace FILE or -synth")
	}
}

// fetchStats reads the target's /stats and returns the fleet-wide
// serve.Stats view: a router's body carries it under "merged" (with the
// per-replica breakdown alongside), a single replica's body is the stats
// object itself. Probing for the key keeps loadgen agnostic to which kind
// of target it was pointed at.
func fetchStats(ctx context.Context, client *http.Client, target string) (serve.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/stats", nil)
	if err != nil {
		return serve.Stats{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Stats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.Stats{}, fmt.Errorf("loadgen: /stats status %d: %s", resp.StatusCode, body)
	}
	var probe struct {
		Merged *serve.Stats `json:"merged"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return serve.Stats{}, fmt.Errorf("loadgen: /stats body: %w", err)
	}
	if probe.Merged != nil {
		return *probe.Merged, nil
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return serve.Stats{}, fmt.Errorf("loadgen: /stats body: %w", err)
	}
	return st, nil
}

// TenantReport is one tenant's line of the final report: the client-side
// offered load plus the server-side measurement.
type TenantReport struct {
	Tenant  string  `json:"tenant"`
	Sent    uint64  `json:"sent"`
	Errors  uint64  `json:"errors"`
	Queries uint64  `json:"queries"`
	HitRate float64 `json:"hit_rate"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// Measured is false when /stats had no latency histogram for the
	// tenant — the condition that fails the run.
	Measured bool `json:"measured"`
}

// LoadgenReport is the -json output schema.
type LoadgenReport struct {
	Target    string         `json:"target"`
	Events    int            `json:"events"`
	Sent      uint64         `json:"sent"`
	Errors    uint64         `json:"errors"`
	ElapsedMs float64        `json:"elapsed_ms"`
	QPS       float64        `json:"qps"`
	Tenants   []TenantReport `json:"tenants"`
}

func buildReport(tr workload.Trace, rep workload.Report, st serve.Stats) (LoadgenReport, bool) {
	out := LoadgenReport{
		Events:    len(tr.Events),
		Sent:      rep.Sent,
		Errors:    rep.Errors,
		ElapsedMs: float64(rep.Elapsed) / float64(time.Millisecond),
	}
	if rep.Elapsed > 0 {
		out.QPS = float64(rep.Sent) / rep.Elapsed.Seconds()
	}
	ok := true
	names := tr.Tenants()
	sort.Strings(names)
	for _, name := range names {
		line := TenantReport{
			Tenant: name,
			Sent:   rep.PerTenant[name].Sent,
			Errors: rep.PerTenant[name].Errors,
		}
		if ts, found := st.Tenants[name]; found && ts.Latency.Count > 0 {
			line.Measured = true
			line.Queries = ts.Queries
			if ts.Queries > 0 {
				line.HitRate = float64(ts.Hits) / float64(ts.Queries)
			}
			line.P50Ms = ms(ts.Latency.Quantile(0.50))
			line.P95Ms = ms(ts.Latency.Quantile(0.95))
			line.P99Ms = ms(ts.Latency.Quantile(0.99))
		} else {
			ok = false
		}
		out.Tenants = append(out.Tenants, line)
	}
	return out, ok
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

func printReport(r LoadgenReport) {
	fmt.Printf("replayed %d events in %.1fms (%.1f qps offered), %d errors\n",
		r.Sent, r.ElapsedMs, r.QPS, r.Errors)
	fmt.Printf("%-12s %8s %7s %9s %9s %9s %9s\n",
		"tenant", "queries", "errors", "hit-rate", "p50-ms", "p95-ms", "p99-ms")
	for _, t := range r.Tenants {
		if !t.Measured {
			fmt.Printf("%-12s %8d %7d  MISSING: no latency histogram in /stats\n", t.Tenant, t.Sent, t.Errors)
			continue
		}
		fmt.Printf("%-12s %8d %7d %9.3f %9.3f %9.3f %9.3f\n",
			t.Tenant, t.Queries, t.Errors, t.HitRate, t.P50Ms, t.P95Ms, t.P99Ms)
	}
}
