// Package engine is the compiled-plan execution layer of the harness: it
// splits an overlapped GEMM+collective run into an offline Compile step and
// an online Exec step, mirroring the paper's own two-stage tuning design
// (§4: profile and plan once per shape, then reuse the plan for every
// execution of that shape).
//
// The three entry points form a pipeline:
//
//   - Compile(core.Options) resolves everything shape- and
//     platform-dependent — normalized options, the tile grid, the
//     GEMM cost model, the wave-group partition bounds — into an immutable
//     *Plan that is safe for concurrent reuse.
//   - Engine.ExecPlan(plan, variant) runs one execution of a compiled plan
//     at the variant's fidelity — a simulation in a simulator, cluster and
//     streams reset for it alone, or an analytic evaluation — varying only
//     the per-run knobs (seed, imbalance, wave-size override, functional
//     data, tracing).
//   - Engine.Batch fans a slice of runs across a bounded worker pool with
//     deterministic result ordering (results[i] always answers runs[i],
//     regardless of worker count), deduplicating compilation through an LRU
//     plan cache keyed on (Platform, NGPUs, Shape, Cfg, Prim, Partition,
//     WaveSizeOverride).
//
// The sweep loops of the tuner, the experiment harness, and the workload
// evaluator all go through Batch/Exec, which turns every sweep from
// O(runs x rebuild) serial work into O(unique plans) compilation plus
// parallel execution. Results are byte-identical to serial core.Run calls:
// each execution has a discrete-event simulator to itself, reset
// completely before it runs (core reuses the memory of earlier
// executions), and its tie-breaking is deterministic, so neither worker
// scheduling nor which memory an execution reuses can leak into the
// outputs.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
)

// Key identifies a compiled plan: every Options field that shapes the plan
// itself, with defaults resolved the same way core.Compile resolves them.
// Variant fields (seed, imbalance, functional data, tracing, slowdowns) are
// deliberately absent — they vary per execution on one cached plan.
type Key struct {
	Plat             hw.Platform
	NGPUs            int
	Shape            gemm.Shape
	Cfg              gemm.Config
	Prim             hw.Primitive
	Partition        string
	WaveSizeOverride int
}

// keyOf derives the cache key from options without paying for a full
// compile. The config default matches core's normalization exactly; a nil
// partition keys as the per-wave default.
func keyOf(o core.Options) Key {
	cfg := o.Cfg
	if cfg == (gemm.Config{}) {
		cfg = gemm.DefaultConfig(o.Shape)
	}
	part := "per-wave"
	if o.Partition != nil {
		part = o.Partition.String()
	}
	return Key{
		Plat:             o.Plat,
		NGPUs:            o.NGPUs,
		Shape:            o.Shape,
		Cfg:              cfg,
		Prim:             o.Prim,
		Partition:        part,
		WaveSizeOverride: o.WaveSizeOverride,
	}
}

// Plan is an immutable compiled execution plan. Concurrent executions of
// one Plan are safe.
type Plan struct {
	c *core.Compiled
}

// Compile builds a plan outside any cache (the cold path; Engine.Plan is the
// cached equivalent). Plans are fidelity-neutral: the same compiled plan
// backs DES and analytic executions, so the fidelity is stripped before
// compiling (it is a variant knob, like the seed).
func Compile(o core.Options) (*Plan, error) {
	o.Fidelity = ""
	c, err := core.Compile(o)
	if err != nil {
		return nil, err
	}
	return &Plan{c: c}, nil
}

// DefaultCacheSize bounds the default engine's plan cache. A Table 3 grid
// crossed with GPU counts and tuned partitions stays well under this, so
// full-figure sweeps compile each unique plan once.
const DefaultCacheSize = 512

// Engine executes simulation runs through a bounded worker pool and an LRU
// plan cache. The zero value is not ready; use New or Default.
type Engine struct {
	workers int
	cache   *planCache
	// curves backs the analytic fidelity: one lazily sampled (or seeded)
	// bandwidth curve per (platform, group size, primitive).
	curves curveCache

	hits, misses atomic.Uint64 // plan-cache lookups, behind Stats
}

// New builds an engine with the given worker-pool width and plan-cache
// capacity. workers <= 0 selects GOMAXPROCS; cacheSize <= 0 selects
// DefaultCacheSize.
func New(workers, cacheSize int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	return &Engine{
		workers: workers,
		cache:   newPlanCache(cacheSize),
	}
}

var (
	defaultOnce sync.Once
	defaultEng  *Engine
)

// Default returns the process-wide shared engine (GOMAXPROCS workers,
// DefaultCacheSize plans). The sweep harnesses all share it so plans cached
// by one figure generator are reused by the next.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEng = New(0, 0) })
	return defaultEng
}

// Workers reports the pool width Batch fans across.
func (e *Engine) Workers() int { return e.workers }

// Plan returns the compiled plan for o, compiling on a cache miss. Two
// options values that differ only in variant fields share one cached plan,
// and concurrent misses on one key compile it once: the first caller
// compiles, the others wait for its plan and count as hits. A waiter whose
// owner's compile failed compiles for itself, because the failure may lie
// in the owner's variant fields, which the key leaves out.
func (e *Engine) Plan(o core.Options) (*Plan, error) {
	k := keyOf(o)
	for {
		ent, owner := e.cache.acquire(k)
		if owner {
			e.misses.Add(1)
			return e.compile(ent, o)
		}
		<-ent.done
		if ent.plan != nil {
			e.hits.Add(1)
			return ent.plan, nil
		}
	}
}

// compile fills an owned cache entry. It settles the entry even when
// Compile panics, so no waiter blocks forever.
func (e *Engine) compile(ent *cacheEntry, o core.Options) (p *Plan, err error) {
	defer func() { e.cache.settle(ent, p) }()
	return Compile(o)
}

// Exec runs o through the plan cache: compile (or reuse) the plan, then
// execute o's variant at the fidelity it names. It is the
// drop-in replacement for core.Run in sweep loops. ctx cancellation aborts
// a DES execution between simulator events and surfaces as ctx.Err().
func (e *Engine) Exec(ctx context.Context, o core.Options) (*core.Result, error) {
	p, err := e.Plan(o)
	if err != nil {
		return nil, err
	}
	return e.ExecPlan(ctx, p, core.VariantOf(o))
}

// ExecPlan executes one variant of an already-compiled plan at the
// variant's fidelity. DES ("" or "des", the ground truth) runs the
// discrete-event simulator; ctx cancellation stops it between events and
// returns ctx.Err(). Analytic evaluates the Algorithm 1 predictor over the
// engine's bandwidth curve for the plan's (platform, group, primitive),
// without the simulator; one evaluation is microseconds of arithmetic, so
// it ignores ctx and Batch checks cancellation between items. Both are
// deterministic, so sweeps stay byte-reproducible at any fidelity mix.
func (e *Engine) ExecPlan(ctx context.Context, p *Plan, v core.Variant) (*core.Result, error) {
	switch v.Fidelity {
	case "", core.FidelityDES:
		return p.c.Exec(ctx, v)
	case core.FidelityAnalytic:
		o := p.c.Options()
		return p.c.ExecAnalytic(v, e.Curve(o.Plat, o.NGPUs, o.Prim))
	}
	return nil, fmt.Errorf("engine: unknown fidelity %q", v.Fidelity)
}

// RunError is the error Batch returns: the failing run's input index plus
// the underlying cause. Callers that re-batch subsets of a larger grid (the
// sharded sweep driver) unwrap it to translate the local index back to a
// global one.
type RunError struct {
	Index int
	Err   error
}

func (e *RunError) Error() string { return fmt.Sprintf("engine: run %d: %v", e.Index, e.Err) }
func (e *RunError) Unwrap() error { return e.Err }

// Batch executes every run across the worker pool and returns the results
// in input order: results[i] answers runs[i] no matter how many workers
// execute or in which order they finish. On failure the lowest-index error
// is returned as a *RunError (also independent of scheduling), so error
// behavior matches a serial loop that stops at the first failing run.
//
// ctx cancellation stops the batch between items: workers check ctx before
// claiming each run (and the in-flight runs abort between simulator
// events), and a cancelled batch returns the bare ctx.Err() — not a
// *RunError, because cancellation names no failing run.
func (e *Engine) Batch(ctx context.Context, runs []core.Options) ([]*core.Result, error) {
	results := make([]*core.Result, len(runs))
	errs := make([]error, len(runs))
	workers := e.workers
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers <= 1 {
		for i := range runs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if results[i], errs[i] = e.Exec(ctx, runs[i]); errs[i] != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				return nil, &RunError{Index: i, Err: errs[i]}
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
				// Fail fast: once any run errors (or the context is
				// done), stop claiming new indices. A claimed index
				// always executes (checking failed after claiming could
				// skip an index below the failing one), and claims are
				// issued in increasing order, so every index below a
				// failing one records its result — the lowest-index
				// error stays deterministic.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= len(runs) {
					return
				}
				if results[i], errs[i] = e.Exec(ctx, runs[i]); errs[i] != nil {
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
			return nil, &RunError{Index: i, Err: err}
		}
	}
	return results, nil
}

// CacheStats reports plan-cache effectiveness since the engine was built.
func (e *Engine) CacheStats() (hits, misses uint64, size int) {
	return e.hits.Load(), e.misses.Load(), e.cache.len()
}

// Stats is a point-in-time snapshot of an engine's plan-cache counters, in a
// form a serving layer can embed directly in a JSON status endpoint. When a
// router merges replica snapshots every field sums, Size, Capacity and
// Workers included: across disjoint replicas they read as fleet totals.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
	// Capacity is the LRU bound; Size <= Capacity always holds.
	Capacity int `json:"capacity"`
	// Workers is the pool width Batch fans across.
	Workers int `json:"workers"`
}

// Stats snapshots the plan-cache counters. Hits and misses are read
// independently, so a snapshot taken under concurrent load is approximate
// (each counter is itself exact).
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:     e.hits.Load(),
		Misses:   e.misses.Load(),
		Size:     e.cache.len(),
		Capacity: e.cache.cap(),
		Workers:  e.workers,
	}
}
