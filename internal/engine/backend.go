package engine

import (
	"sync"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/stats"
)

// curveKey identifies one offline bandwidth curve. hw.Platform is a plain
// scalar struct, so the composite key is comparable.
type curveKey struct {
	plat  hw.Platform
	nGPUs int
	prim  hw.Primitive
}

// curveCache lazily samples and memoizes bandwidth curves. Sampling is
// deterministic (comm.SampleCurve with jitter disabled), so independent
// engines — one per replica across a fleet — converge on identical curves
// without coordination, and analytic results merge byte-identically no
// matter which engine evaluated them.
type curveCache struct {
	mu     sync.Mutex
	curves map[curveKey]*stats.Curve
}

// get returns the cached curve, sampling it on first use. The lock is held
// across sampling: a cold curve costs a few hundred simulated collectives
// once per (platform, group, primitive), and racing duplicates would waste
// exactly that work to produce an identical curve.
func (cc *curveCache) get(k curveKey) *stats.Curve {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c := cc.curves[k]; c != nil {
		return c
	}
	if cc.curves == nil {
		cc.curves = make(map[curveKey]*stats.Curve)
	}
	c := comm.SampleCurve(k.plat, k.nGPUs, k.prim, nil)
	cc.curves[k] = c
	return c
}

// seed installs a pre-sampled curve without sampling.
func (cc *curveCache) seed(k curveKey, c *stats.Curve) {
	if c == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.curves == nil {
		cc.curves = make(map[curveKey]*stats.Curve)
	}
	cc.curves[k] = c
}

// Curve returns the engine's bandwidth curve for the triple, sampling
// lazily on first use. The serving layer's tuners score against it too, so
// each (platform, group size, primitive) is sampled once per engine.
func (e *Engine) Curve(plat hw.Platform, nGPUs int, prim hw.Primitive) *stats.Curve {
	return e.curves.get(curveKey{plat: plat, nGPUs: nGPUs, prim: prim})
}

// SeedCurve installs a pre-sampled bandwidth curve for the analytic
// backend, skipping the lazy offline sampling for that (platform, group
// size, primitive). The serving layer seeds its engine from Config.Curves
// so one sampled curve feeds both the tuner and analytic execution; the
// curve must have been sampled on the same triple (with default sizes) or
// analytic results will diverge across the fleet.
func (e *Engine) SeedCurve(plat hw.Platform, nGPUs int, prim hw.Primitive, c *stats.Curve) {
	e.curves.seed(curveKey{plat: plat, nGPUs: nGPUs, prim: prim}, c)
}
