// Package serve is the long-lived tuning service of the paper's §4.2.2
// dynamic-shape story at production scale: a Service owns an execution
// engine and one tuner per communication primitive, and answers
// (shape, primitive, imbalance) queries from the tuners' concurrency-safe
// nearest-neighbor caches. Cache misses tune through a singleflight path, so
// a burst of identical queries for an unseen shape costs one predictive
// search, and a representative-shape list can be pre-warmed through
// engine.Batch before traffic arrives.
//
// The package separates mechanism from transport: Service is the in-process
// API, Handler adapts it to HTTP/JSON (cmd/serve and examples/serving both
// mount it).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// Config sizes a Service. The zero value of every field selects a sensible
// default, so Config{Plat: hw.RTX4090PCIe(), NGPUs: 4} is a working service.
type Config struct {
	// Plat and NGPUs fix the platform half of the (platform, shape,
	// primitive) query space; one Service serves one deployment.
	Plat  hw.Platform
	NGPUs int
	// Workers bounds the engine pool used by Warm and background
	// execution; <= 0 selects GOMAXPROCS.
	Workers int
	// PlanCacheSize bounds the engine's compiled-plan LRU; <= 0 selects
	// engine.DefaultCacheSize.
	PlanCacheSize int
	// ShapeCacheSize bounds each primitive's tuned-shape cache; <= 0
	// selects tuner.DefaultShapeCacheCapacity.
	ShapeCacheSize int
	// CandidateLimit bounds the per-shape search space; <= 0 selects 512,
	// a real-time budget (cmd/tune's default) rather than the offline
	// tuner's 4096.
	CandidateLimit int
	// Owns restricts Warm to the shapes this replica owns in a sharded
	// deployment (internal/shard supplies the predicate); nil owns
	// everything. Queries are still answered for any shape — failover
	// routing may legitimately land a non-owned query here.
	Owns func(gemm.Shape) bool
	// Shard labels the replica ("1/4") in Stats so a router's merged view
	// attributes counters; empty for an unsharded deployment.
	Shard string
	// Curves optionally seeds the per-primitive bandwidth curves,
	// skipping the offline sampling stage for those primitives. Sharded
	// deployments sample once and share the immutable curve across
	// replicas; the curves must match Plat/NGPUs.
	Curves map[hw.Primitive]*stats.Curve
}

// Answer sources.
const (
	// SourceCache marks an answer served from the tuned-shape cache
	// without any search.
	SourceCache = "cache"
	// SourceTuned marks an answer that ran (or waited on) a predictive
	// search.
	SourceTuned = "tuned"
)

// BadQueryError marks a deterministic rejection of the query itself — an
// invalid shape or one too large to plan (gemm.ErrTooManyTiles), a
// malformed imbalance factor, an unsupported primitive. Every identically
// configured replica rejects such a query the same way, so the HTTP layer
// maps it to a 4xx status and the shard router does not burn failover
// retries on it. Internal failures (tuner search, engine execution)
// are returned unwrapped and map to 5xx, which the router treats as
// retryable — a replica mid-deploy or out of memory is not evidence the
// query is bad.
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return e.Err.Error() }
func (e *BadQueryError) Unwrap() error { return e.Err }

// IsBadQuery reports whether err is (or wraps) a deterministic query
// rejection.
func IsBadQuery(err error) bool {
	var bq *BadQueryError
	return errors.As(err, &bq)
}

func badQueryf(format string, args ...any) error {
	return &BadQueryError{Err: fmt.Errorf(format, args...)}
}

// Query asks for the tuned partition of one GEMM-collective overlap.
type Query struct {
	Shape gemm.Shape
	Prim  hw.Primitive
	// Imbalance is the All-to-All max/mean load factor (0 or >= 1).
	Imbalance float64
	// Tenant is an optional accounting label (/query's tenant parameter):
	// it selects which per-tenant latency histogram and hit counter the
	// answer records into, and nothing else. Deliberately excluded from the
	// cache, singleflight, and pre-encoded answer keys — two tenants asking
	// for the same shape share one tuned entry and identical reply bytes.
	Tenant string
}

// Answer is the service's reply: the wave-group partition to launch with and
// the Alg. 1 latency prediction for it.
type Answer struct {
	Partition gemm.Partition
	Waves     int
	Predicted sim.Time
	Source    string
}

// Stats snapshots the service counters. Hits + Misses equals the number of
// Query calls that reached a tuner; Collapsed counts queries whose tune was
// deduplicated onto another in-flight query's search; Tunes counts searches
// actually executed (including Warm's).
type Stats struct {
	// Shard is the replica's slice label ("1/4") in a sharded deployment;
	// empty when unsharded.
	Shard        string `json:"shard,omitempty"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Collapsed    uint64 `json:"collapsed"`
	Tunes        uint64 `json:"tunes"`
	ShapesCached int    `json:"shapes_cached"`
	// EncodedHits counts the subset of Hits answered from the pre-encoded
	// warm fast path (no predictor, no JSON encode); WarmEncoded is the
	// number of answers currently held pre-encoded. The gap between
	// EncodedHits and Hits measures nearest-neighbor hits, which still pay
	// the full answer path.
	EncodedHits uint64 `json:"hits_encoded"`
	WarmEncoded int    `json:"warm_encoded"`
	// SnapshotRestored counts tuned entries re-admitted from a warm-state
	// snapshot at boot and kept by the shape caches; SnapshotRejects counts snapshot files refused
	// (corrupt, truncated, or mismatched version/platform/config), each of
	// which fell back to a cold start.
	SnapshotRestored uint64 `json:"snapshot_restored"`
	SnapshotRejects  uint64 `json:"snapshot_rejects"`
	// SweptItemsAnalytic and SweptItemsDES split successfully executed
	// sweep items by fidelity, so operators can read the fidelity mix of
	// live traffic off /stats (a mixed sweep counts into both).
	SweptItemsAnalytic uint64 `json:"swept_items_analytic"`
	SweptItemsDES      uint64 `json:"swept_items_des"`
	// CancelledQueries counts /query requests abandoned on a context error
	// (client disconnect or deadline); CancelledSweepItems counts sweep
	// items whose execution or delivery was skipped because the request
	// context ended mid-chunk; DeadlineExceeded is the subset of both whose
	// context ended by deadline rather than explicit cancellation.
	CancelledQueries    uint64       `json:"cancelled_queries"`
	CancelledSweepItems uint64       `json:"cancelled_sweep_items"`
	DeadlineExceeded    uint64       `json:"deadline_exceeded"`
	Primitives          []string     `json:"primitives"`
	Engine              engine.Stats `json:"engine"`
	// Latency is the query-latency histogram over every answered /query —
	// warm fast-path hits included — from which the JSON form derives
	// p50/p95/p99. The fixed bucket boundaries make router-merged
	// percentiles exact. Nil until the first answered query, so a fresh
	// replica's /stats is byte-identical to the pre-histogram wire form.
	Latency *metrics.HistogramSnapshot `json:"latency,omitempty"`
	// Tenants breaks queries down by the optional tenant label (/query's
	// tenant parameter, SweepSpec.Tenant): per-tenant latency percentiles,
	// hit rate, and swept-item counts. Empty (and omitted) until a labeled
	// request arrives.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of the service counters. Its fields are
// plain mergeable state (the derived hit rate is computed on marshal), so
// a router merging replica snapshots sums them like any other counter.
type TenantStats struct {
	// Queries counts answered /query requests carrying this tenant label;
	// Hits is the subset answered from the tuned-shape cache (pre-encoded
	// fast path included).
	Queries uint64 `json:"queries"`
	Hits    uint64 `json:"hits"`
	// SweptItems counts sweep items executed under this tenant label.
	SweptItems uint64 `json:"swept_items"`
	// Latency is the tenant's query-latency histogram.
	Latency metrics.HistogramSnapshot `json:"latency"`
}

// tenantWire is TenantStats' JSON schema: the mergeable state plus the
// derived hit rate.
type tenantWire struct {
	Queries    uint64                    `json:"queries"`
	Hits       uint64                    `json:"hits"`
	SweptItems uint64                    `json:"swept_items"`
	HitRate    float64                   `json:"hit_rate"`
	Latency    metrics.HistogramSnapshot `json:"latency"`
}

// MarshalJSON appends the derived hit_rate. Recomputed from the counters on
// every marshal, it stays correct across merges and decode/encode round
// trips without ever being merged itself.
func (t TenantStats) MarshalJSON() ([]byte, error) {
	w := tenantWire{Queries: t.Queries, Hits: t.Hits, SweptItems: t.SweptItems, Latency: t.Latency}
	if t.Queries > 0 {
		w.HitRate = float64(t.Hits) / float64(t.Queries)
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores the mergeable state, dropping the derived rate.
func (t *TenantStats) UnmarshalJSON(data []byte) error {
	var w tenantWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*t = TenantStats{Queries: w.Queries, Hits: w.Hits, SweptItems: w.SweptItems, Latency: w.Latency}
	return nil
}

// Merge accumulates another replica's snapshot through the generic metrics
// merge: counters sum, primitive sets union, histograms add bucket-wise,
// tenant maps union by key, and the shard label is dropped (a merged view
// spans shards). Every field — including any added later — participates
// automatically; the hand-written per-field merge this replaces silently
// dropped counters its author forgot to thread through.
func (s Stats) Merge(o Stats) Stats {
	return metrics.MergeSnapshots(s, o)
}

// Service is a long-lived, concurrency-safe tuning server. Construct with
// New; all methods may be called from any number of goroutines.
type Service struct {
	cfg Config
	eng *engine.Engine

	// tuners holds each supported primitive's tuner, indexed by
	// hw.Primitive and installed on first use. Every entry of a tuner's
	// shape cache carries its pre-encoded JSON /query reply: the §4.2.2
	// answer for a tuned key is immutable until re-tune, so the bytes are
	// encoded once, as the entry is stored, and a warm hit writes them
	// straight to the wire with no predictor, no clone, and no JSON encoder
	// on the path. An eviction or re-tune drops them with the entry.
	tuners [hw.AllToAll + 1]atomic.Pointer[tuner.Tuner]

	tuneFlight flightGroup // collapses concurrent misses per (prim, shape, imbalance)

	// The counters behind Stats, one per /stats key.
	hits, misses, collapsed, tunes atomic.Uint64
	encodedHits                    atomic.Uint64
	snapshotRestored               atomic.Uint64
	snapshotRejects                atomic.Uint64
	sweptAnalytic, sweptDES        atomic.Uint64
	cancelledQueries               atomic.Uint64
	cancelledSweep                 atomic.Uint64
	deadlineExceeded               atomic.Uint64
	// latency is the all-queries histogram behind Stats.Latency; tenants
	// holds each tenant's counters, created once on the tenant's first
	// labeled request and read lock-free-ish (RLock + atomic adds) after,
	// so recording stays allocation-free on the warm fast path.
	latency   metrics.Histogram
	tenantsMu sync.RWMutex
	tenants   map[string]*tenantMetrics

	// tuneHook, when set (tests only), runs inside the singleflight'd
	// search, letting a test hold the flight open while more queries pile
	// onto it, or inject an internal tuning failure.
	tuneHook func() error
}

// New builds a service. It is cheap: the per-primitive offline stage
// (bandwidth sampling, sub-millisecond) runs lazily on the first query or
// Warm for that primitive.
func New(cfg Config) (*Service, error) {
	if err := cfg.Plat.Validate(); err != nil {
		return nil, err
	}
	if cfg.NGPUs < 2 {
		return nil, fmt.Errorf("serve: overlap needs >= 2 GPUs, got %d", cfg.NGPUs)
	}
	if cfg.CandidateLimit <= 0 {
		cfg.CandidateLimit = 512
	}
	eng := engine.New(cfg.Workers, cfg.PlanCacheSize)
	// Seed the engine's analytic backend with the same curves the tuners
	// get: one offline sampling feeds prediction and analytic execution,
	// and a fleet sharing Config.Curves stays byte-identical on both.
	for p, curve := range cfg.Curves {
		eng.SeedCurve(cfg.Plat, cfg.NGPUs, p, curve)
	}
	return &Service{
		cfg:     cfg,
		eng:     eng,
		tenants: make(map[string]*tenantMetrics),
	}, nil
}

// QueryEncoded answers a warm query from the pre-encoded reply bytes: the
// zero-allocation fast path behind /query. ok is false when the exact
// (shape, primitive, imbalance) key has no tuned entry — nearest-neighbor
// matches and misses take the full Query path. The returned bytes are the
// complete JSON body a cold-path reply would encode, byte for byte; callers
// must treat them as immutable.
func (s *Service) QueryEncoded(q Query) ([]byte, bool) {
	if !supportedPrim(q.Prim) {
		return nil, false
	}
	tn := s.tuners[q.Prim].Load()
	if tn == nil {
		return nil, false
	}
	buf, ok := tn.Encoded(q.Shape, q.Imbalance)
	if !ok {
		return nil, false
	}
	s.hits.Add(1)
	s.encodedHits.Add(1)
	return buf, true
}

// supportedPrim mirrors core's primitive support: the service only answers
// for primitives the execution engine can run.
func supportedPrim(p hw.Primitive) bool {
	switch p {
	case hw.AllReduce, hw.ReduceScatter, hw.AllToAll:
		return true
	}
	return false
}

// tunerFor returns the primitive's tuner, installing one on first use. Its
// curve comes from the engine's curve cache, which samples each primitive
// once; racing first queries may each build a tuner around it, and only the
// first installed is kept.
func (s *Service) tunerFor(p hw.Primitive) (*tuner.Tuner, error) {
	if !supportedPrim(p) {
		return nil, badQueryf("serve: unsupported primitive %v", p)
	}
	if tn := s.tuners[p].Load(); tn != nil {
		return tn, nil
	}
	s.tuners[p].CompareAndSwap(nil, s.newTuner(p, s.eng.Curve(s.cfg.Plat, s.cfg.NGPUs, p)))
	return s.tuners[p].Load(), nil
}

// newTuner builds the primitive's tuner around a bandwidth curve. Its Encode
// hook renders each entry's /query reply as a cache hit on the entry sends
// it, Source SourceCache included, so the fast path stays byte-identical to
// a slow-path cache hit.
func (s *Service) newTuner(p hw.Primitive, curve *stats.Curve) *tuner.Tuner {
	tn := tuner.NewTunerWithCurve(s.cfg.Plat, s.cfg.NGPUs, p, curve)
	tn.CandidateLimit = s.cfg.CandidateLimit
	tn.CacheCapacity = s.cfg.ShapeCacheSize
	tn.Workers = s.eng.Workers() // one Config.Workers knob bounds all CPU use
	tn.Encode = func(e tuner.CacheEntry) []byte {
		// An entry that cannot be rendered stores no bytes and is answered
		// on the slow path.
		q := Query{Shape: e.Shape, Prim: p, Imbalance: e.Imbalance}
		ans, err := s.answer(tn, q, e.Partition, SourceCache)
		if err != nil {
			return nil
		}
		buf, _ := encodeAnswer(q, ans) // nil on error
		return buf
	}
	return tn
}

func flightKey(q Query) string {
	// Normalize like the tuner cache does (0 and anything below 1 mean
	// balanced), so equivalent queries share one flight.
	imb := q.Imbalance
	if imb < 1 {
		imb = 1
	}
	return fmt.Sprintf("%s|%s|%g", q.Prim, q.Shape, imb)
}

// validateQuery rejects malformed queries before any tuner state is touched.
// Every failure is a BadQueryError: rejecting the same query is the one
// behavior all replicas share.
func validateQuery(q Query) error {
	if q.Shape.M <= 0 || q.Shape.N <= 0 || q.Shape.K <= 0 {
		return badQueryf("serve: invalid shape %v", q.Shape)
	}
	// A shape whose tile grid is over gemm.MaxTiles can never be planned,
	// on this replica or any other.
	if err := gemm.CheckPlan(q.Shape, gemm.DefaultConfig(q.Shape)); err != nil {
		return &BadQueryError{Err: err}
	}
	// 0 means balanced; otherwise require a finite factor >= 1. The NaN
	// check matters: a NaN key would never match itself in the shape
	// cache, so every such query would tune and leak an unevictable entry.
	if q.Imbalance != 0 && (!(q.Imbalance >= 1) || math.IsInf(q.Imbalance, 1)) {
		return badQueryf("serve: imbalance %v must be a finite factor >= 1 (or 0 for balanced)", q.Imbalance)
	}
	return ValidateTenant(q.Tenant)
}

// Query answers one (shape, primitive, imbalance) request. A warm query —
// one whose shape matches a cached tune with a compatible wave count — never
// compiles or searches; a miss tunes through the singleflight path, so
// concurrent misses on one key share a single search. Errors are classified:
// deterministic rejections of the query itself satisfy IsBadQuery, anything
// else is an internal failure another replica might not share.
//
// ctx cancellation abandons only this caller: an in-flight shared tune
// still completes and fills the cache for the next query. Abandoned
// requests return the ctx error (never a BadQueryError) and count into
// cancelled_queries / deadline_exceeded.
func (s *Service) Query(ctx context.Context, q Query) (ans Answer, err error) {
	defer func() {
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			if errors.Is(err, context.DeadlineExceeded) {
				s.deadlineExceeded.Add(1)
			}
			s.cancelledQueries.Add(1)
		}
	}()
	if err := validateQuery(q); err != nil {
		return Answer{}, err
	}
	tn, err := s.tunerFor(q.Prim)
	if err != nil {
		return Answer{}, err
	}
	if part, ok := tn.LookupAt(q.Shape, q.Imbalance); ok {
		s.hits.Add(1)
		return s.answer(tn, q, part, SourceCache)
	}
	s.misses.Add(1)
	v, err, shared := s.tuneFlight.do(ctx, flightKey(q), func(fctx context.Context) (any, error) {
		if s.tuneHook != nil {
			if err := s.tuneHook(); err != nil {
				return nil, err
			}
		}
		s.tunes.Add(1)
		return tn.Tune(fctx, q.Shape, q.Imbalance)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Answer{}, err
		}
		return Answer{}, fmt.Errorf("serve: tuning %v %v: %w", q.Prim, q.Shape, err)
	}
	if shared {
		s.collapsed.Add(1)
	}
	// Every collapsed waiter receives the same underlying slice; clone so
	// answers never alias each other (the cache-hit path clones too).
	return s.answer(tn, q, v.(gemm.Partition).Clone(), SourceTuned)
}

// answer attaches the Alg. 1 prediction to a partition. The predictor is
// pure (it reads only the immutable bandwidth curve), so answers are safe to
// build concurrently.
func (s *Service) answer(tn *tuner.Tuner, q Query, part gemm.Partition, source string) (Answer, error) {
	pred, err := tuner.NewPredictor(s.cfg.Plat, q.Shape, gemm.Config{}, tn.Curve, q.Imbalance)
	if err != nil {
		return Answer{}, err
	}
	lat, err := pred.Predict(part)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Partition: part, Waves: part.TotalWaves(), Predicted: lat, Source: source}, nil
}

// Warm pre-tunes a representative-shape list for each primitive and executes
// every tuned configuration once through engine.Batch, so both the shape
// caches and the engine's plan cache are hot before traffic arrives (the
// paper's "pre-search representative sizes" step). In a sharded deployment
// (Config.Owns set) only the owned slice of the list is warmed: each
// replica's caches stay disjoint, and the fleet covers the full list.
// ctx cancellation stops warming between shapes; already-tuned entries stay.
func (s *Service) Warm(ctx context.Context, prims []hw.Primitive, shapes []gemm.Shape, imbalance float64) error {
	if s.cfg.Owns != nil {
		owned := make([]gemm.Shape, 0, len(shapes))
		for _, shape := range shapes {
			if s.cfg.Owns(shape) {
				owned = append(owned, shape)
			}
		}
		shapes = owned
	}
	if len(shapes) == 0 {
		return nil
	}
	for _, p := range prims {
		tn, err := s.tunerFor(p)
		if err != nil {
			return err
		}
		parts, err := tn.TuneGrid(ctx, shapes, imbalance)
		if err != nil {
			return fmt.Errorf("serve: warming %v: %w", p, err)
		}
		s.tunes.Add(uint64(len(shapes)))
		runs := make([]core.Options, len(shapes))
		for i, shape := range shapes {
			runs[i] = core.Options{
				Plat:      s.cfg.Plat,
				NGPUs:     s.cfg.NGPUs,
				Shape:     shape,
				Prim:      p,
				Partition: parts[i],
				Imbalance: imbalance,
			}
		}
		if _, err := s.eng.Batch(ctx, runs); err != nil {
			return fmt.Errorf("serve: warming %v: %w", p, err)
		}
	}
	return nil
}

// countSwept attributes one successfully executed sweep item to its
// fidelity tier and, when the sweep carries a tenant label, to the tenant.
func (s *Service) countSwept(tenant string, f core.Fidelity) {
	if f == core.FidelityAnalytic {
		s.sweptAnalytic.Add(1)
	} else {
		s.sweptDES.Add(1)
	}
	if tenant != "" {
		s.tenantFor(tenant).swept.Add(1)
	}
}

// Stats snapshots the service counters. Counters are read independently, so
// a snapshot under concurrent load is approximate; each counter is exact.
func (s *Service) Stats() Stats {
	st := Stats{
		Shard:               s.cfg.Shard,
		Hits:                s.hits.Load(),
		Misses:              s.misses.Load(),
		Collapsed:           s.collapsed.Load(),
		Tunes:               s.tunes.Load(),
		EncodedHits:         s.encodedHits.Load(),
		SnapshotRestored:    s.snapshotRestored.Load(),
		SnapshotRejects:     s.snapshotRejects.Load(),
		SweptItemsAnalytic:  s.sweptAnalytic.Load(),
		SweptItemsDES:       s.sweptDES.Load(),
		CancelledQueries:    s.cancelledQueries.Load(),
		CancelledSweepItems: s.cancelledSweep.Load(),
		DeadlineExceeded:    s.deadlineExceeded.Load(),
		Engine:              s.eng.Stats(),
	}
	if s.latency.Count() > 0 {
		snap := s.latency.Snapshot()
		st.Latency = &snap
	}
	st.Tenants = s.tenantSnapshots()
	for p := range s.tuners {
		if tn := s.tuners[p].Load(); tn != nil {
			st.ShapesCached += tn.CacheSize()
			st.WarmEncoded += tn.EncodedSize()
			st.Primitives = append(st.Primitives, hw.Primitive(p).String())
		}
	}
	sort.Strings(st.Primitives)
	return st
}

// ParsePrimitive resolves a primitive from its full or figure-label name
// ("AllReduce"/"AR", "ReduceScatter"/"RS", "AllToAll"/"A2A").
func ParsePrimitive(name string) (hw.Primitive, error) {
	for _, p := range []hw.Primitive{hw.AllReduce, hw.ReduceScatter, hw.AllToAll} {
		if name == p.String() || name == p.Short() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown primitive %q (want AR, RS, or A2A)", name)
}

// ParsePrimitives parses a comma-separated primitive list ("AR,RS") — the
// shared parser behind cmd/serve's -warm-prims and cmd/sweep's -prims.
func ParsePrimitives(raw string) ([]hw.Primitive, error) {
	var out []hw.Primitive
	for _, tok := range strings.Split(raw, ",") {
		p, err := ParsePrimitive(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ParseShapes parses a comma-separated MxNxK list
// ("2048x8192x4096,4096x8192x8192") — the shared parser behind cmd/serve's
// -warm and cmd/sweep's -shapes. Parsing is strict: trailing garbage and
// non-positive dimensions are rejected rather than silently truncated.
func ParseShapes(raw string) ([]gemm.Shape, error) {
	var out []gemm.Shape
	for _, tok := range strings.Split(raw, ",") {
		dims := strings.Split(strings.TrimSpace(tok), "x")
		if len(dims) != 3 {
			return nil, fmt.Errorf("serve: bad shape %q (want MxNxK)", tok)
		}
		var s gemm.Shape
		for i, dst := range []*int{&s.M, &s.N, &s.K} {
			v, err := strconv.Atoi(dims[i])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("serve: bad shape %q: dimension %q must be a positive integer", tok, dims[i])
			}
			*dst = v
		}
		out = append(out, s)
	}
	return out, nil
}
