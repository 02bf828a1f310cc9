package core

import (
	"context"
	"fmt"

	"repro/internal/gemm"
)

// Compiled is an immutable, reusable execution plan: everything Run derives
// from Options that depends only on the platform, group size, GEMM shape and
// configuration, primitive, partition, and wave-size override — the
// normalized options, the tile schedule, the cost model, and the wave-group
// bounds — hoisted out of the per-run path so that sweeps compile once and
// execute many times (the paper's offline/online split applied to our own
// harness). A Compiled is safe for concurrent use: every Exec simulates in
// a world of its own, reset before it runs, and never mutates the plan.
type Compiled struct {
	opts     Options // normalized copy; variant fields hold compile-time defaults
	plan     *gemm.Plan
	cm       gemm.CostModel
	trueSMs  int
	waveSize int
	bounds   []gemm.GroupBound
}

// Compile resolves and validates everything shape- and platform-dependent in
// o: defaults are filled (GEMM config, per-wave partition), the tile launch
// order is computed, and the partition is bound to tile-position ranges.
// The variant fields of o (Seed, Imbalance, Functional, Routing, Trace,
// DeviceSlowdown) are validated and retained as the plan's default variant.
func Compile(o Options) (*Compiled, error) {
	plan, waveSize, err := o.normalize()
	if err != nil {
		return nil, err
	}
	o.Partition = o.Partition.Clone() // callers may reuse their slice
	var bounds []gemm.GroupBound
	if o.WaveSizeOverride != 0 {
		bounds = o.Partition.BoundsClamped(plan, waveSize)
	} else {
		bounds = o.Partition.Bounds(plan, waveSize)
	}
	return &Compiled{
		opts:     o,
		plan:     plan,
		cm:       gemm.NewCostModel(o.Plat.GPU),
		trueSMs:  o.Plat.GPU.SMs - o.Plat.CommSMs,
		waveSize: waveSize,
		bounds:   bounds,
	}, nil
}

// Options returns the normalized options the plan was compiled from (config
// and partition defaults filled in).
func (c *Compiled) Options() Options { return c.opts }

// Plan exposes the resolved tile schedule.
func (c *Compiled) Plan() *gemm.Plan { return c.plan }

// WaveSize reports the assumed tiles-per-wave width of the compiled plan.
func (c *Compiled) WaveSize() int { return c.waveSize }

// Waves reports the plan's wave count at the compiled wave width.
func (c *Compiled) Waves() int { return c.plan.Waves(c.waveSize) }

// Variant holds the per-execution knobs: every Options field a fresh
// simulation may vary without invalidating a compiled plan. The zero value
// is a plain timing run; start from DefaultVariant to inherit the values the
// plan was compiled with.
type Variant struct {
	// Seed perturbs the functional input data.
	Seed uint64
	// Imbalance is the All-to-All max/mean load factor (0 or >= 1).
	Imbalance float64
	// WaveSizeOverride forces the counting thresholds to assume this wave
	// width instead of the compiled one (Fig. 14's misconfigured "mw").
	// 0 keeps the compiled width.
	WaveSizeOverride int
	// Functional enables real data computation; Routing is required for
	// functional AllToAll.
	Functional bool
	Routing    [][]int
	// Trace records kernel spans.
	Trace bool
	// DeviceSlowdown gives per-device GEMM slowdown factors (>= 1).
	DeviceSlowdown []float64
	// Fidelity selects the execution backend. Exec runs FidelityDES (and
	// the "" default); FidelityAnalytic must go through ExecAnalytic,
	// which needs the bandwidth curve Exec does not have.
	Fidelity Fidelity
}

// VariantOf extracts the per-execution knobs of o, leaving the plan-level
// fields to Compile.
func VariantOf(o Options) Variant {
	return Variant{
		Seed:             o.Seed,
		Imbalance:        o.Imbalance,
		WaveSizeOverride: o.WaveSizeOverride,
		Functional:       o.Functional,
		Routing:          o.Routing,
		Trace:            o.Trace,
		DeviceSlowdown:   o.DeviceSlowdown,
		Fidelity:         o.Fidelity,
	}
}

// DefaultVariant returns the variant captured at compile time, so
// c.Exec(c.DefaultVariant()) reproduces Run(o) exactly.
func (c *Compiled) DefaultVariant() Variant { return VariantOf(c.opts) }

// Exec runs one simulation of the compiled plan under the variant. Each
// execution takes a world (simulator, cluster, streams, signals, counting
// tables) that no other execution is using and resets it completely, so
// repeated and concurrent executions are independent and deterministic,
// and a run in a reused world is identical to one in a fresh world. ctx
// bounds the run: cancellation stops the simulation between events (wave
// retirements and kernel completions, never mid-kernel) and Exec returns
// ctx.Err().
func (c *Compiled) Exec(ctx context.Context, v Variant) (*Result, error) {
	w := worlds.Get().(*world)
	res, err := c.exec(ctx, w, v)
	worlds.Put(w) // not reached if the execution panicked: w is dropped
	return res, err
}

// exec runs one simulation of the compiled plan under the variant in w.
func (c *Compiled) exec(ctx context.Context, w *world, v Variant) (*Result, error) {
	if v.Fidelity == FidelityAnalytic {
		return nil, fmt.Errorf("core: analytic execution needs a bandwidth curve: use Compiled.ExecAnalytic or the engine's analytic backend")
	}
	o := c.opts
	o.Fidelity = v.Fidelity
	o.Seed = v.Seed
	o.Imbalance = v.Imbalance
	o.WaveSizeOverride = v.WaveSizeOverride
	o.Functional = v.Functional
	o.Routing = v.Routing
	o.Trace = v.Trace
	o.DeviceSlowdown = v.DeviceSlowdown
	if err := o.validateVariant(); err != nil {
		return nil, err
	}
	waveSize, bounds := c.waveSize, c.bounds
	if v.WaveSizeOverride != c.opts.WaveSizeOverride {
		var err error
		if waveSize, bounds, err = c.rebind(v.WaveSizeOverride); err != nil {
			return nil, err
		}
	}
	return execute(ctx, w, &o, c.plan, c.cm, bounds, waveSize, c.trueSMs)
}

// rebind recomputes the wave width and group bounds for an exec-time wave
// override that differs from the compiled one. The compiled partition is
// kept: overriding the width models mis-set counting thresholds, exactly
// like Options.WaveSizeOverride at compile time.
func (c *Compiled) rebind(override int) (int, []gemm.GroupBound, error) {
	if override == 0 {
		waveSize := c.trueSMs
		if err := c.opts.Partition.Validate(c.plan.Waves(waveSize)); err != nil {
			return 0, nil, err
		}
		return waveSize, c.opts.Partition.Bounds(c.plan, waveSize), nil
	}
	if override < 1 {
		return 0, nil, fmt.Errorf("core: invalid wave size override %d", override)
	}
	if c.opts.Partition.TotalWaves()*override < c.plan.Tiles {
		return 0, nil, fmt.Errorf("core: partition %v at wave size %d does not cover %d tiles",
			c.opts.Partition, override, c.plan.Tiles)
	}
	return override, c.opts.Partition.BoundsClamped(c.plan, override), nil
}
