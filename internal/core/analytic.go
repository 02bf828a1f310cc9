package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ExecAnalytic evaluates the compiled plan with the Algorithm 1 latency
// model instead of the event simulator: computation accumulates per wave
// group from the profiled GEMM duration, and each group's collective is
// looked up on the offline-sampled bandwidth curve (per-rank payload bytes
// to nanoseconds) and appended after max(compute-ready, previous comm).
// The arithmetic mirrors tuner.Predictor.Predict operation for operation,
// so the returned Latency is bit-identical to the predictor's estimate for
// the same (platform, shape, config, partition, imbalance) — the agreement
// the analytic sweep backend pins in tests.
//
// Analytic execution models timing only, and only at the compiled wave
// width: variants asking for functional data, tracing, device slowdowns, or
// a wave-size override are rejected rather than silently mispredicted. The
// seed is ignored (the model has no noise), and the imbalance factor scales
// every group's payload, matching how the predictor extends Alg. 1 for
// skewed All-to-All (§4.2.2).
func (c *Compiled) ExecAnalytic(v Variant, curve *stats.Curve) (*Result, error) {
	if curve == nil {
		return nil, fmt.Errorf("core: analytic execution needs a bandwidth curve")
	}
	if v.Fidelity != "" && v.Fidelity != FidelityAnalytic {
		return nil, fmt.Errorf("core: ExecAnalytic asked for fidelity %q", v.Fidelity)
	}
	if v.Functional {
		return nil, fmt.Errorf("core: analytic execution cannot produce functional data")
	}
	if v.Trace {
		return nil, fmt.Errorf("core: analytic execution has no kernel timeline to trace")
	}
	if len(v.DeviceSlowdown) != 0 {
		return nil, fmt.Errorf("core: analytic execution does not model device slowdowns")
	}
	if v.WaveSizeOverride != 0 || c.opts.WaveSizeOverride != 0 {
		return nil, fmt.Errorf("core: analytic execution models only the true wave width (override %d/%d)",
			v.WaveSizeOverride, c.opts.WaveSizeOverride)
	}
	imb := v.Imbalance
	if imb != 0 && imb < 1 {
		return nil, fmt.Errorf("core: imbalance factor %v < 1", imb)
	}
	if imb < 1 {
		imb = 1
	}

	t := c.plan.Waves(c.waveSize)
	gemmTime := c.cm.Duration(c.plan, c.waveSize)
	perWave := gemmTime / sim.Time(int64(t))
	tileBytes := c.plan.TileBytes()

	res := &Result{
		Plan:      c.plan,
		Partition: c.opts.Partition.Clone(),
		WaveSize:  c.waveSize,
		Waves:     t,
		GEMMEnd:   gemmTime,
		Groups:    make([]GroupTiming, len(c.bounds)),
		Fidelity:  FidelityAnalytic,
	}
	var accP, accM sim.Time
	for g, b := range c.bounds {
		accP += perWave * sim.Time(int64(b.WaveHi-b.WaveLo))
		bytes := float64(int64(b.Tiles())*tileBytes) * imb
		accM = sim.Max(accP, accM) + sim.Time(curve.Eval(bytes))
		res.Groups[g] = GroupTiming{
			Bytes:    int64(bytes),
			SignalAt: accP,
			CommEnd:  accM,
		}
	}
	res.Latency = accM
	return res, nil
}
