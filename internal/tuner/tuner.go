// Package tuner implements the real-time tuning of §4: the offline stage
// (GEMM configuration profiling and bandwidth-curve sampling), the online
// stage (design-space generation with pruning, and the Algorithm 1 latency
// predictor that replaces online profiling), plus the exhaustive-search
// oracle used to validate the predictor (Fig. 15, claim C2) and a
// nearest-neighbor cache for dynamic workloads (§4.2.2).
package tuner

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SampleBandwidthCurve performs the offline stage's bandwidth sampling
// (Alg. 1 line 5). It is comm.SampleCurve, re-exported under the tuner's
// historical name: the sampling itself lives below the engine so the
// analytic execution backend can sample lazily without importing the tuner.
func SampleBandwidthCurve(plat hw.Platform, nGPUs int, prim hw.Primitive, sizes []int64) *stats.Curve {
	return comm.SampleCurve(plat, nGPUs, prim, sizes)
}

// DefaultSampleSizes returns log-spaced payload sizes from 16 KiB to 1 GiB,
// dense enough that interpolation error stays small across the Fig. 8 cliff.
func DefaultSampleSizes() []int64 { return comm.DefaultSampleSizes() }

// Predictor is the Algorithm 1 latency model for one (platform, GEMM,
// primitive, parallelism) point. It sees only offline-profiled quantities:
// the GEMM duration under the contended SM count and the sampled bandwidth
// curve — never the simulator's ground-truth link model.
type Predictor struct {
	Plan     *gemm.Plan
	WaveSize int      // SMs available to the GEMM (total - comm)
	Waves    int      // T
	GEMMTime sim.Time // profiled duration at WaveSize SMs
	PerWave  sim.Time // GEMMTime / T
	Curve    *stats.Curve
	// Imbalance scales group payloads for All-to-All (§4.2.2 extends the
	// prediction by the max across GPUs).
	Imbalance float64
	TileBytes int64
}

// NewPredictor assembles a predictor from the offline profile.
func NewPredictor(plat hw.Platform, shape gemm.Shape, cfg gemm.Config, curve *stats.Curve, imbalance float64) (*Predictor, error) {
	if cfg == (gemm.Config{}) {
		cfg = gemm.DefaultConfig(shape)
	}
	plan, err := gemm.NewPlan(shape, cfg)
	if err != nil {
		return nil, err
	}
	waveSize := plat.GPU.SMs - plat.CommSMs
	cm := gemm.NewCostModel(plat.GPU)
	t := plan.Waves(waveSize)
	dur := cm.Duration(plan, waveSize)
	if imbalance < 1 {
		imbalance = 1
	}
	return &Predictor{
		Plan:      plan,
		WaveSize:  waveSize,
		Waves:     t,
		GEMMTime:  dur,
		PerWave:   dur / sim.Time(int64(t)),
		Curve:     curve,
		Imbalance: imbalance,
		TileBytes: plan.TileBytes(),
	}, nil
}

// Predict estimates the overlapped latency of a partition (Alg. 1 lines
// 10-22): computation accumulates per group; each group's communication
// starts at max(accumulated computation at its signal, accumulated
// communication) and the final group's communication is appended last.
//
// The group bounds arithmetic is inlined rather than materialized through
// part.Bounds: Predict is the per-item cost of analytic sweeps, and the
// bounds slice was its only allocation. The inlined positions are exactly
// Bounds' (PosLo = WaveLo*WaveSize, PosHi clamped to the tile count), so
// predictions are bit-identical to the slice-based path.
func (p *Predictor) Predict(part gemm.Partition) (sim.Time, error) {
	if err := part.Validate(p.Waves); err != nil {
		return 0, err
	}
	var accP, accM sim.Time
	wave := 0
	for _, g := range part {
		posLo := wave * p.WaveSize
		wave += g
		posHi := wave * p.WaveSize
		if posHi > p.Plan.Tiles {
			posHi = p.Plan.Tiles
		}
		accP += p.PerWave * sim.Time(int64(g)) // t_p of this group
		bytes := float64(int64(posHi-posLo)*p.TileBytes) * p.Imbalance
		accM = sim.Max(accP, accM) + sim.Time(p.Curve.Eval(bytes))
	}
	return accM, nil
}

// Candidates enumerates the pruned design space (§4.1.4): all binary
// communicate/hold decisions after each wave, constrained to |G1| <= s1 and
// |GP| <= sp. When the constrained space still exceeds limit, it falls back
// to a structured family — head in 1..s1, tail in 1..sp, equal-sized
// interior — keeping tuning real-time for very large T (an engineering
// extension the paper's shapes did not need; see DESIGN.md).
func Candidates(t, s1, sp, limit int) []gemm.Partition {
	if t < 1 {
		panic(fmt.Sprintf("tuner: invalid wave count %d", t))
	}
	if s1 < 1 || sp < 1 {
		panic(fmt.Sprintf("tuner: invalid prune bounds S1=%d SP=%d", s1, sp))
	}
	if limit <= 0 {
		limit = 4096
	}
	if t == 1 {
		return []gemm.Partition{{1}}
	}
	// Exhaustive enumeration when the pruned space is small enough:
	// 2^(T-1) binary decisions, filtered by the head/tail constraint.
	if t-1 <= 20 && 1<<(t-1) <= limit*8 {
		var out []gemm.Partition
		for mask := 0; mask < 1<<(t-1); mask++ {
			part := partitionFromMask(mask, t)
			if part[0] <= s1 && part[len(part)-1] <= sp {
				out = append(out, part)
			}
			if len(out) > limit {
				break
			}
		}
		if len(out) <= limit {
			return out
		}
	}
	// Structured fallback, deduplicated and ordered by each partition's
	// string, formatted once.
	seen := map[string]gemm.Partition{}
	var keys []string
	add := func(p gemm.Partition) {
		if p.Validate(t) != nil {
			return
		}
		if p[0] > s1 || p[len(p)-1] > sp {
			return
		}
		key := p.String()
		if _, dup := seen[key]; !dup {
			seen[key] = p
			keys = append(keys, key)
		}
	}
	add(gemm.SingleGroup(t))
	for head := 1; head <= s1; head++ {
		for tail := 1; tail <= sp; tail++ {
			mid := t - head - tail
			if mid < 0 {
				continue
			}
			if mid == 0 {
				add(gemm.Partition{head, tail})
				continue
			}
			for g := 1; g <= mid; g++ {
				p := gemm.Partition{head}
				p = append(p, gemm.EqualSized(mid, g)...)
				p = append(p, tail)
				add(p)
			}
		}
	}
	sort.Strings(keys)
	out := make([]gemm.Partition, len(keys))
	for i, key := range keys {
		out[i] = seen[key]
	}
	return out
}

// partitionFromMask decodes a binary decision vector: bit i set means
// "communicate after wave i" (the last wave always communicates).
func partitionFromMask(mask, t int) gemm.Partition {
	var part gemm.Partition
	size := 0
	for w := 0; w < t; w++ {
		size++
		if w == t-1 || mask&(1<<w) != 0 {
			part = append(part, size)
			size = 0
		}
	}
	return part
}

// SearchResult reports a search outcome.
type SearchResult struct {
	Partition gemm.Partition
	// Predicted is the Alg. 1 estimate (predictive search) or the
	// measured latency (exhaustive search).
	Latency    sim.Time
	Candidates int
}

// PredictiveSearch returns the candidate with the minimum predicted latency.
// ctx cancellation stops the scan between candidates (checked every 256, as
// one prediction is sub-microsecond arithmetic) and returns ctx.Err().
func PredictiveSearch(ctx context.Context, p *Predictor, cands []gemm.Partition) (SearchResult, error) {
	if len(cands) == 0 {
		return SearchResult{}, fmt.Errorf("tuner: no candidates")
	}
	best := SearchResult{Latency: sim.MaxTime, Candidates: len(cands)}
	for i, c := range cands {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return SearchResult{}, err
			}
		}
		t, err := p.Predict(c)
		if err != nil {
			return SearchResult{}, err
		}
		if t < best.Latency {
			best.Latency = t
			best.Partition = c.Clone()
		}
	}
	return best, nil
}

// ExhaustiveSearch runs every candidate on the simulator (the paper's
// online-profiling oracle, >100x slower than prediction) and returns the
// measured optimum. Candidates execute through the batch engine: one run per
// partition, fanned across the worker pool, with the same winner a serial
// scan would pick (ties break toward the earlier candidate). ctx
// cancellation stops the batch between candidate runs.
func ExhaustiveSearch(ctx context.Context, o core.Options, cands []gemm.Partition) (SearchResult, error) {
	if len(cands) == 0 {
		return SearchResult{}, fmt.Errorf("tuner: no candidates")
	}
	runs := make([]core.Options, len(cands))
	for i, c := range cands {
		run := o
		run.Partition = c.Clone()
		runs[i] = run
	}
	results, err := engine.Default().Batch(ctx, runs)
	if err != nil {
		return SearchResult{}, err
	}
	best := SearchResult{Latency: sim.MaxTime, Candidates: len(cands)}
	for i, res := range results {
		if res.Latency < best.Latency {
			best.Latency = res.Latency
			best.Partition = cands[i].Clone()
		}
	}
	return best, nil
}

// PruneBounds are the paper's evaluation settings (§4.1.4).
const (
	DefaultS1 = 2
	DefaultSP = 4
)

// Tuner bundles the offline profile and the online search with a
// nearest-neighbor cache for dynamic shapes (§4.2.2: pre-search
// representative sizes, match unseen ones at runtime). All methods are safe
// for concurrent use: the predictor path is pure, and the shape cache is
// RWMutex-guarded, so whole grids can tune in parallel and a long-lived
// service can serve Lookup while background goroutines Tune misses.
type Tuner struct {
	Plat  hw.Platform
	NGPUs int
	Prim  hw.Primitive
	Curve *stats.Curve

	// CandidateLimit bounds the search space per shape.
	CandidateLimit int
	// CacheCapacity bounds the shape cache (<= 0 selects
	// DefaultShapeCacheCapacity). It must be set before the first Tune or
	// Lookup; later changes have no effect.
	CacheCapacity int
	// Workers bounds TuneGrid's fan-out (<= 0 selects the default
	// engine's worker width). A serving layer sets this to its own
	// engine's width so one Config.Workers knob bounds all CPU use.
	Workers int
	// Encode, when set before the first Tune or SeedCache, renders an
	// entry's answer bytes once, before the entry is stored (outside the
	// cache lock); Encoded hands them out until the entry is evicted or
	// re-tuned, which drops them with it. The serving layer renders its
	// /query reply here. A nil result stores the entry without bytes.
	Encode func(CacheEntry) []byte

	cacheOnce sync.Once
	cache     *shapeCache
}

// NewTuner runs the offline stage (bandwidth sampling) and returns a ready
// tuner.
func NewTuner(plat hw.Platform, nGPUs int, prim hw.Primitive) *Tuner {
	return NewTunerWithCurve(plat, nGPUs, prim, SampleBandwidthCurve(plat, nGPUs, prim, nil))
}

// NewTunerWithCurve builds a tuner around an already-sampled bandwidth curve,
// skipping the offline stage. Sharded deployments use it to run the sampling
// once per (platform, primitive) and hand the same immutable curve to every
// replica; the curve must have been sampled on the same platform, GPU count,
// and primitive, or predictions will be silently wrong.
func NewTunerWithCurve(plat hw.Platform, nGPUs int, prim hw.Primitive, curve *stats.Curve) *Tuner {
	return &Tuner{
		Plat:           plat,
		NGPUs:          nGPUs,
		Prim:           prim,
		Curve:          curve,
		CandidateLimit: 4096,
	}
}

// shapes returns the lazily built shape cache, so a zero-constructed Tuner
// (tests build them literally) still gets a bounded, concurrency-safe store.
func (t *Tuner) shapes() *shapeCache {
	t.cacheOnce.Do(func() {
		capacity := t.CacheCapacity
		if capacity <= 0 {
			capacity = DefaultShapeCacheCapacity
		}
		t.cache = newShapeCache(capacity)
	})
	return t.cache
}

// store caches a tuned partition together with its Encode bytes.
func (t *Tuner) store(shape gemm.Shape, imbalance float64, part gemm.Partition) {
	e := CacheEntry{Shape: shape, Imbalance: normImbalance(imbalance), Partition: part}
	var encoded []byte
	if t.Encode != nil {
		encoded = t.Encode(e)
	}
	t.shapes().put(shapeKey{shape: shape, imb: e.Imbalance}, part, encoded)
}

// CacheEntry is one tuned shape-cache row in portable form: the key the
// entry answers and the partition it holds. Imbalance is stored normalized
// (>= 1), exactly as the cache keys it.
type CacheEntry struct {
	Shape     gemm.Shape
	Imbalance float64
	Partition gemm.Partition
}

// CacheSnapshot exports the tuned entries in least-recently-used-first
// order, so replaying them through SeedCache reproduces both the contents
// and the LRU recency of this cache. The snapshot aliases nothing: it stays
// valid however the tuner evolves afterwards.
func (t *Tuner) CacheSnapshot() []CacheEntry {
	return t.shapes().snapshot()
}

// SeedCache replays previously exported entries (least recently used first)
// into the cache — the warm-restore half of CacheSnapshot. Every entry is
// validated the way Lookup's transfer check would: the partition must total
// exactly the wave count of the entry's shape on this tuner's platform, so a
// corrupt or foreign snapshot is rejected before any entry lands. Entries
// beyond the cache capacity evict in the usual LRU order.
func (t *Tuner) SeedCache(entries []CacheEntry) error {
	waveSize := t.Plat.GPU.SMs - t.Plat.CommSMs
	for _, e := range entries {
		plan, err := gemm.NewPlan(e.Shape, gemm.DefaultConfig(e.Shape))
		if err != nil {
			return fmt.Errorf("tuner: seeding shape %v: %w", e.Shape, err)
		}
		waves := plan.Waves(waveSize)
		if err := e.Partition.Validate(waves); err != nil {
			return fmt.Errorf("tuner: seeding shape %v: partition %v does not fit %d waves: %w", e.Shape, e.Partition, waves, err)
		}
	}
	for _, e := range entries {
		t.store(e.Shape, e.Imbalance, e.Partition)
	}
	return nil
}

// Tune runs the online stage for one GEMM size and caches the result, with
// its Encode bytes. Re-tuning a shape replaces its cache entry rather than
// growing the cache. A cancelled ctx aborts the search before any cache
// write, so a cancelled Tune never installs a partial result.
func (t *Tuner) Tune(ctx context.Context, shape gemm.Shape, imbalance float64) (gemm.Partition, error) {
	pred, err := NewPredictor(t.Plat, shape, gemm.Config{}, t.Curve, imbalance)
	if err != nil {
		return nil, err
	}
	cands := Candidates(pred.Waves, DefaultS1, DefaultSP, t.CandidateLimit)
	res, err := PredictiveSearch(ctx, pred, cands)
	if err != nil {
		return nil, err
	}
	t.store(shape, imbalance, res.Partition)
	return res.Partition, nil
}

// TuneGrid tunes every shape, fanning the predictive searches across a
// bounded worker pool sized like engine.Batch's (the engine's worker width).
// results[i] answers shapes[i] regardless of scheduling; the lowest-index
// error is returned, matching a serial loop that stops at the first failure.
// ctx cancellation stops the grid between shapes (workers check before each
// claim) and returns the bare ctx.Err(); shapes already tuned stay cached.
func (t *Tuner) TuneGrid(ctx context.Context, shapes []gemm.Shape, imbalance float64) ([]gemm.Partition, error) {
	results := make([]gemm.Partition, len(shapes))
	errs := make([]error, len(shapes))
	workers := t.Workers
	if workers <= 0 {
		workers = engine.Default().Workers()
	}
	if workers > len(shapes) {
		workers = len(shapes)
	}
	if workers <= 1 {
		for i, s := range shapes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if results[i], errs[i] = t.Tune(ctx, s, imbalance); errs[i] != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, fmt.Errorf("tuner: shape %v: %w", s, errs[i])
			}
		}
		return results, nil
	}
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Fail fast, like engine.Batch: once any shape errors
				// (or the context is done), stop claiming new indices. A
				// claimed index always executes, and claims are issued
				// in increasing order, so every index below a failing
				// one records its result — the lowest-index error stays
				// deterministic and the cache does not keep filling.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= len(shapes) {
					return
				}
				if results[i], errs[i] = t.Tune(ctx, shapes[i], imbalance); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tuner: shape %v: %w", shapes[i], err)
		}
	}
	return results, nil
}

// Lookup performs nearest-neighbor matching against previously tuned shapes
// in (log M·N, log K) space, ignoring the imbalance the entries were tuned
// at; ok is false when the cache is empty or the nearest neighbor's wave
// count is incompatible with the query shape. Imbalance-sensitive callers
// (the serving layer) use LookupAt.
func (t *Tuner) Lookup(shape gemm.Shape) (gemm.Partition, bool) {
	return t.lookup(shape, anyImbalance)
}

// LookupAt is Lookup restricted to entries tuned at the given imbalance
// factor (0 and anything below 1 normalize to 1, like Tune): a partition
// tuned for balanced traffic must not answer a heavily skewed query, whose
// optimum can differ.
func (t *Tuner) LookupAt(shape gemm.Shape, imbalance float64) (gemm.Partition, bool) {
	return t.lookup(shape, normImbalance(imbalance))
}

func (t *Tuner) lookup(shape gemm.Shape, imbalance float64) (gemm.Partition, bool) {
	best, ok := t.shapes().nearest(shape, imbalance)
	if !ok {
		return nil, false
	}
	// The cached partition only transfers if the wave counts agree.
	plan, err := gemm.NewPlan(shape, gemm.DefaultConfig(shape))
	if err != nil {
		return nil, false
	}
	waveSize := t.Plat.GPU.SMs - t.Plat.CommSMs
	if best.partWave != plan.Waves(waveSize) {
		return nil, false
	}
	t.shapes().touch(best.key)
	return best.part.Clone(), true
}

// Encoded returns the Encode bytes of the entry tuned at exactly (shape,
// imbalance), with imbalance normalized like LookupAt's. It reads under the
// cache's read lock and allocates nothing. ok is false when no such entry
// holds bytes; the bytes are shared and must not be modified.
func (t *Tuner) Encoded(shape gemm.Shape, imbalance float64) ([]byte, bool) {
	buf := t.shapes().encoded(shapeKey{shape: shape, imb: normImbalance(imbalance)})
	return buf, buf != nil
}

// CacheSize reports the number of tuned shapes held.
func (t *Tuner) CacheSize() int { return t.shapes().len() }

// EncodedSize reports how many of the held entries carry Encode bytes.
func (t *Tuner) EncodedSize() int { return t.shapes().encodedCount() }
