package core

import (
	"context"
	"fmt"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Run executes one FlashOverlap overlapped GEMM+collective on the simulated
// cluster and returns its timeline (and, when Options.Functional is set,
// the real data outputs for correctness checking).
//
// The execution follows Fig. 5:
//
//  1. every device runs a single GEMM kernel on its compute stream; its
//     epilogue scatters each finished tile through the reorder mapping and
//     bumps the counting table (modeled at wave granularity, since a wave's
//     tiles retire within ~5% of each other);
//  2. when group G_j's count reaches |G_j|, the device's signal fires; the
//     signaling kernel on the communication stream polls the table with the
//     platform's polling period and then releases group j's collective —
//     one plain library call over one contiguous buffer range;
//  3. the post-communication reorder is deferred to the consumer (fused
//     into the next element-wise kernel; see Result accessors and the
//     Table 5 overhead study).
//
// ctx bounds the execution: cancellation (or a deadline) stops the
// simulation at the next event boundary — between wave retirements and
// kernel completions, never mid-kernel — and Run returns ctx.Err().
func Run(ctx context.Context, o Options) (*Result, error) {
	c, err := Compile(o)
	if err != nil {
		return nil, err
	}
	return c.Exec(ctx, c.DefaultVariant())
}

// execute performs one simulation of a compiled plan in w. o is a private
// copy whose variant fields have already been validated; plan, cm, bounds
// and the wave widths come from the Compiled and are never mutated, so
// concurrent executions of one plan, each in its own world, are safe. ctx
// cancellation aborts between simulator events and surfaces as ctx.Err().
func execute(ctx context.Context, w *world, o *Options, plan *gemm.Plan, cm gemm.CostModel, bounds []gemm.GroupBound, assumedWave, trueSMs int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var fs *funcState
	if o.Functional {
		var err error
		fs, err = newFuncState(o, plan, bounds)
		if err != nil {
			return nil, err
		}
	}

	// The result is the execution's own: nothing in it is world memory.
	res := &Result{
		Plan:      plan,
		Partition: o.Partition.Clone(),
		WaveSize:  assumedWave,
		Waves:     plan.Waves(assumedWave),
		Groups:    make([]GroupTiming, len(bounds)),
		Fidelity:  FidelityDES,
		funcState: fs,
	}
	w.reset(o, plan, cm, bounds, trueSMs, fs, res)
	defer w.clear()
	n := o.NGPUs

	// Compute stream: one GEMM kernel per device, whose epilogue fills the
	// device's counting table and fires its per-group ready signals. The
	// per-device jitter factor stretches the whole wave schedule
	// coherently — thermal or clock variance slows the kernel but
	// preserves the wave pattern (§4.2.3).
	for d, dev := range w.cluster.Devices {
		dw := w.devs[d]
		dw.jf = dev.JitterFactor()
		if len(o.DeviceSlowdown) != 0 {
			dw.jf *= o.DeviceSlowdown[d]
		}
		dw.dur = dw.scale(cm.Duration(plan, trueSMs))
		dw.kernel.SMs = trueSMs
		dw.cs.Launch(dw.kernel)
	}

	// Communication stream: per group, a signaling wait then one
	// collective-library call. Enqueue order per stream is
	// wait(G1), coll(G1), wait(G2), coll(G2), ... — collectives of
	// consecutive groups serialize on the communication stream like the
	// paper's timeline.
	for g := range bounds {
		for d := 0; d < n; d++ {
			w.com.Stream(d).WaitSignal(&w.devs[d].sigs[g], o.Plat.SignalPoll)
		}
		perRank := o.groupBytes(w.perRank, fs, plan, bounds, g)
		res.Groups[g].Bytes = maxInt64(perRank)
		var apply func()
		if fs != nil {
			apply = fs.applier(g)
		}
		w.done[g] = w.com.Collective(w.collNames[o.Prim][g], o.Prim, perRank, apply)
	}

	if err := w.cluster.Sim.RunCtx(ctx); err != nil {
		return nil, err
	}

	// Collect signal times (max across devices, like the paper's
	// per-group release points) and when each group's collective ended.
	for g := range bounds {
		var worst sim.Time
		for d := 0; d < n; d++ {
			ok, at := w.devs[d].sigs[g].Fired()
			if !ok {
				return nil, fmt.Errorf("core: group %d never signaled on device %d", g, d)
			}
			if at > worst {
				worst = at
			}
		}
		res.Groups[g].SignalAt = worst
		_, end := w.done[g].Fired()
		res.Groups[g].CommEnd = end
		if end > res.Latency {
			res.Latency = end
		}
	}
	if o.Trace {
		for _, d := range w.cluster.Devices {
			res.Trace = append(res.Trace, d.Trace...)
		}
	}
	return res, nil
}

// groupBytes resolves group g's per-rank payload, into dst when every rank
// sends the same.
func (o *Options) groupBytes(dst []int64, fs *funcState, plan *gemm.Plan, bounds []gemm.GroupBound, g int) []int64 {
	if o.Prim == hw.AllToAll && fs != nil {
		return fs.ex.GroupBytes(g)
	}
	bytes := int64(bounds[g].Tiles()) * plan.TileBytes()
	if o.Prim == hw.AllToAll && o.Imbalance > 1 {
		bytes = int64(float64(bytes) * o.Imbalance)
	}
	for i := range dst {
		dst[i] = bytes
	}
	return dst
}

func maxInt64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
