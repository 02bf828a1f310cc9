package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// TraceVersion is the trace format generation this package reads and
// writes. Version 1 is NDJSON: one TraceHeader line, then exactly
// header.Events TraceEvent lines in non-decreasing offset order.
const TraceVersion = 1

// TraceHeader is the first NDJSON line of a trace file. Carrying the event
// count up front lets a reader distinguish a truncated file from a complete
// one — a replay that silently drops the tail of a trace would skew every
// percentile it was meant to measure.
type TraceHeader struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	Events  int    `json:"events"`
}

// TraceEvent is one /query request of a replayable multi-tenant workload:
// who asked (tenant), what for (prim + GEMM shape + optional All-to-All
// imbalance), and when relative to the trace start. The fields mirror the
// /query wire parameters exactly, so an event needs no translation layer
// between trace and HTTP.
type TraceEvent struct {
	OffsetMs  int64   `json:"offset_ms"`
	Tenant    string  `json:"tenant,omitempty"`
	Prim      string  `json:"prim"`
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Imbalance float64 `json:"imbalance,omitempty"`
}

// Trace is a decoded workload trace, ready to replay or write back out.
type Trace struct {
	Name   string
	Events []TraceEvent
}

// Duration is the offset of the last event — the trace-time length of the
// workload (wall-clock replay time additionally depends on the speedup).
func (t Trace) Duration() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return time.Duration(t.Events[len(t.Events)-1].OffsetMs) * time.Millisecond
}

// Tenants returns the sorted distinct tenant labels appearing in the trace.
// Unlabeled events (empty tenant) are not listed.
func (t Trace) Tenants() []string {
	seen := map[string]bool{}
	for _, ev := range t.Events {
		if ev.Tenant != "" {
			seen[ev.Tenant] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteTrace writes t in the v1 NDJSON format: header line first, then one
// compact JSON object per event.
func WriteTrace(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(TraceHeader{Version: TraceVersion, Name: t.Name, Events: len(t.Events)}); err != nil {
		return err
	}
	for _, ev := range t.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTracePresize bounds how many events ReadTrace makes room for before it
// has read them.
const maxTracePresize = 1 << 14

// ReadTrace decodes and validates a v1 NDJSON trace. It is strict: version
// mismatch, malformed lines, an event count disagreeing with the header,
// out-of-order offsets, or nonsensical events (non-positive dims, negative
// offsets, imbalance in (0,1)) are errors naming the offending line — a
// trace that half-parses would replay a workload nobody asked for.
func ReadTrace(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Trace{}, err
		}
		return Trace{}, fmt.Errorf("workload: empty trace: missing header line")
	}
	var hdr TraceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return Trace{}, fmt.Errorf("workload: trace header: %w", err)
	}
	if hdr.Version != TraceVersion {
		return Trace{}, fmt.Errorf("workload: trace version %d not supported (want %d)", hdr.Version, TraceVersion)
	}
	if hdr.Events < 0 {
		return Trace{}, fmt.Errorf("workload: trace header declares %d events", hdr.Events)
	}
	// The header's count sizes the slice only up to a bound: it is input,
	// and a huge count would otherwise allocate before a line is read.
	// append grows past the bound, and the truncation check below compares
	// the counts either way.
	t := Trace{Name: hdr.Name, Events: make([]TraceEvent, 0, min(hdr.Events, maxTracePresize))}
	line := 1
	var prev int64
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue // tolerate a trailing blank line
		}
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return Trace{}, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if err := validateEvent(ev, prev); err != nil {
			return Trace{}, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		prev = ev.OffsetMs
		t.Events = append(t.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, err
	}
	if len(t.Events) != hdr.Events {
		return Trace{}, fmt.Errorf("workload: trace truncated: header declares %d events, file has %d", hdr.Events, len(t.Events))
	}
	return t, nil
}

func validateEvent(ev TraceEvent, prevOffset int64) error {
	if ev.OffsetMs < 0 {
		return fmt.Errorf("negative offset_ms %d", ev.OffsetMs)
	}
	if ev.OffsetMs < prevOffset {
		return fmt.Errorf("offset_ms %d before preceding event at %d: traces must be time-ordered", ev.OffsetMs, prevOffset)
	}
	if ev.M <= 0 || ev.N <= 0 || ev.K <= 0 {
		return fmt.Errorf("non-positive shape %dx%dx%d", ev.M, ev.N, ev.K)
	}
	if ev.Prim == "" {
		return fmt.Errorf("missing prim")
	}
	if ev.Imbalance != 0 && ev.Imbalance < 1 {
		return fmt.Errorf("imbalance %v must be 0 (balanced) or >= 1", ev.Imbalance)
	}
	return nil
}

// SynthConfig parameterizes Synth. Zero values take the documented
// defaults; the same config (including Seed) always yields the same trace.
type SynthConfig struct {
	// Name labels the trace header. Default "synth".
	Name string
	// Tenants is the number of synthetic tenants. Default 3. Tenant i is
	// named "tenant-<i>" and draws from profile i mod 3: profile 0 issues
	// AllReduce over small decode-like shapes, profile 1 ReduceScatter
	// over large prefill-like shapes, profile 2 AllToAll (imbalance 1.5)
	// over MoE-dispatch shapes — three populations distinct enough that
	// per-tenant percentiles visibly differ.
	Tenants int
	// Duration is the trace-time length. Default 10s.
	Duration time.Duration
	// QPS is the aggregate mean arrival rate across tenants while every
	// tenant is in its on-phase. Default 50.
	QPS float64
	// Burst shapes the on/off modulation: each tenant alternates on-phases
	// (mean 1s) emitting at Burst times its fair share of QPS and
	// off-phases (mean Burst-1 seconds) emitting nothing, so the long-run
	// mean rate is the fair share but arrivals clump. 1 disables
	// modulation. Default 4.
	Burst float64
	// Seed seeds the generator; equal seeds give equal traces.
	Seed int64
}

// synthProfile is one tenant archetype: a primitive, an imbalance, and a
// small shape population to draw from.
type synthProfile struct {
	prim      string
	imbalance float64
	shapes    [][3]int
}

var synthProfiles = []synthProfile{
	// Decode-like: small M (a handful of in-flight sequences), AllReduce
	// after the down-projection.
	{prim: "AR", shapes: [][3]int{{64, 8192, 8192}, {128, 8192, 8192}, {64, 8192, 28672}, {256, 4096, 4096}}},
	// Prefill-like: chunked-prefill token counts, ReduceScatter.
	{prim: "RS", shapes: [][3]int{{8192, 8192, 8192}, {16384, 8192, 8192}, {16384, 8192, 28672}, {8192, 28672, 8192}}},
	// MoE dispatch: AllToAll with a hot expert (imbalance 1.5).
	{prim: "A2A", imbalance: 1.5, shapes: [][3]int{{4096, 4096, 14336}, {8192, 4096, 14336}, {4096, 14336, 4096}, {2048, 4096, 4096}}},
}

// Synth generates a deterministic bursty multi-tenant trace. Each tenant is
// an independent on/off modulated Poisson process (exponential
// inter-arrivals) over its profile's shape population; the per-tenant
// streams are merged in time order. Determinism matters twice: CI replays
// the exact trace it asserts on, and two loadgen processes given the same
// seed offer the same workload to different builds.
func Synth(cfg SynthConfig) Trace {
	if cfg.Name == "" {
		cfg.Name = "synth"
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.QPS <= 0 {
		cfg.QPS = 50
	}
	if cfg.Burst < 1 {
		cfg.Burst = 4
	}
	horizon := cfg.Duration.Seconds()
	share := cfg.QPS / float64(cfg.Tenants)
	var events []TraceEvent
	for i := 0; i < cfg.Tenants; i++ {
		// Sub-seeded per tenant: each stream draws from its own generator,
		// so the merge order cannot feed one tenant's randomness into
		// another's.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		prof := synthProfiles[i%len(synthProfiles)]
		tenant := fmt.Sprintf("tenant-%d", i)
		onRate := share * cfg.Burst
		now := 0.0
		for now < horizon {
			// On-phase: mean 1s of elevated-rate arrivals.
			onEnd := now + rng.ExpFloat64()
			for {
				now += rng.ExpFloat64() / onRate
				if now >= onEnd || now >= horizon {
					break
				}
				shape := prof.shapes[rng.Intn(len(prof.shapes))]
				events = append(events, TraceEvent{
					OffsetMs:  int64(now * 1000),
					Tenant:    tenant,
					Prim:      prof.prim,
					M:         shape[0],
					N:         shape[1],
					K:         shape[2],
					Imbalance: prof.imbalance,
				})
			}
			now = onEnd
			if cfg.Burst > 1 {
				// Off-phase: mean Burst-1 seconds of silence, so the
				// long-run mean rate stays at the fair share.
				now += rng.ExpFloat64() * (cfg.Burst - 1)
			}
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].OffsetMs != events[b].OffsetMs {
			return events[a].OffsetMs < events[b].OffsetMs
		}
		return events[a].Tenant < events[b].Tenant
	})
	return Trace{Name: cfg.Name, Events: events}
}
