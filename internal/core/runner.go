package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/comm"
	"repro/internal/gemm"
	"repro/internal/gpu"
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

// execute performs one simulation of a compiled plan. o is a private copy
// whose variant fields have already been validated; plan, cm, bounds and the
// wave widths come from the Compiled and are never mutated, so concurrent
// executions of one plan are safe. ctx cancellation aborts between simulator
// events and surfaces as ctx.Err().
func execute(ctx context.Context, o *Options, plan *gemm.Plan, cm gemm.CostModel, bounds []gemm.GroupBound, assumedWave, trueSMs int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cluster := gpu.NewCluster(o.Plat, o.NGPUs)
	if o.Trace {
		cluster.EnableTrace()
	}
	com := comm.New(cluster)

	var fs *funcState
	if o.Functional {
		var err error
		fs, err = newFuncState(o, plan, bounds)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Plan:      plan,
		Partition: o.Partition.Clone(),
		WaveSize:  assumedWave,
		Waves:     plan.Waves(assumedWave),
		Groups:    make([]GroupTiming, len(bounds)),
		Fidelity:  FidelityDES,
		funcState: fs,
	}

	// Per-device, per-group ready signals driven by the counting tables.
	groups := len(bounds)
	names := execNames(o.NGPUs, groups, o.Prim.Short())
	sigs := make([][]*gpu.Signal, o.NGPUs)
	for d := 0; d < o.NGPUs; d++ {
		sigs[d] = make([]*gpu.Signal, groups)
		for g := range bounds {
			sigs[d][g] = gpu.NewSignal(cluster.Sim, names[d*groups+g])
		}
	}

	// Compute stream: one GEMM kernel per device. The per-device jitter
	// factor stretches the whole wave schedule coherently — thermal or
	// clock variance slows the kernel but preserves the wave pattern
	// (§4.2.3).
	for d, dev := range cluster.Devices {
		d := d
		dev := dev
		fsLocal := fs
		ct := NewCountingTable(bounds, func(g int) {
			if fsLocal != nil {
				fsLocal.epilogueGroup(d, g)
			}
			sigs[d][g].Fire()
		})
		jf := dev.JitterFactor()
		if len(o.DeviceSlowdown) != 0 {
			jf *= o.DeviceSlowdown[d]
		}
		scale := func(t sim.Time) sim.Time { return sim.Time(float64(t) * jf) }
		dur := scale(cm.Duration(plan, trueSMs))
		cs := gpu.NewStream(dev, "compute")
		cs.Launch(gpu.KernelSpec{
			Name: "gemm+epilogue",
			SMs:  trueSMs,
			Duration: func(*gpu.Device, sim.Time) sim.Time {
				return dur
			},
			OnStart: func(start sim.Time) {
				for _, b := range bounds {
					b := b
					// The group's tiles have all retired once
					// ceil(PosHi / trueSMs) true waves have
					// finished — with a misconfigured wave
					// size this is later than the group's
					// nominal boundary, which is exactly the
					// Fig. 14 "mw" degradation.
					wavesNeeded := (b.PosHi + trueSMs - 1) / trueSMs
					at := start + scale(cm.WaveEnd(plan, trueSMs, wavesNeeded-1))
					dev.Sim.At(at, func() {
						ct.AddRange(b.PosLo, b.PosHi)
					})
				}
			},
			OnComplete: func(end sim.Time) {
				if end > res.GEMMEnd {
					res.GEMMEnd = end
				}
			},
		})
	}

	// Communication stream: per group, a signaling wait then one
	// collective-library call. Enqueue order per stream is
	// wait(G1), coll(G1), wait(G2), coll(G2), ... — collectives of
	// consecutive groups serialize on the communication stream like the
	// paper's timeline.
	for g := range bounds {
		g := g
		for d := 0; d < o.NGPUs; d++ {
			com.Stream(d).WaitSignal(sigs[d][g], o.Plat.SignalPoll)
		}
		perRank := o.groupBytes(fs, plan, bounds, g)
		res.Groups[g].Bytes = maxInt64(perRank)
		done := com.Collective(names[o.NGPUs*groups+g], o.Prim, perRank, func() {
			if fs != nil {
				fs.applyGroup(g)
			}
		})
		done.Wait(func(at sim.Time) {
			res.Groups[g].CommEnd = at
			if at > res.Latency {
				res.Latency = at
			}
		})
	}

	if err := cluster.Sim.RunCtx(ctx); err != nil {
		return nil, err
	}

	// Collect signal times (max across devices, like the paper's
	// per-group release points).
	for g := range bounds {
		var worst sim.Time
		for d := 0; d < o.NGPUs; d++ {
			ok, at := sigs[d][g].Fired()
			if !ok {
				return nil, fmt.Errorf("core: group %d never signaled on device %d", g, d)
			}
			if at > worst {
				worst = at
			}
		}
		res.Groups[g].SignalAt = worst
	}
	if o.Trace {
		for _, d := range cluster.Devices {
			res.Trace = append(res.Trace, d.Trace...)
		}
	}
	return res, nil
}

// execNames formats one execution's signal names, "dev<d>/G<g>" at index
// d*groups+g, then its collective names, "<prim>/G<g+1>" at index
// nGPUs*groups+g. All of them are slices of one string, so naming an
// execution takes a fixed four allocations rather than a fmt.Sprintf per
// device and group.
func execNames(nGPUs, groups int, prim string) []string {
	n := (nGPUs + 1) * groups
	buf := make([]byte, 0, 16*n)
	ends := make([]int, 0, n)
	for d := 0; d < nGPUs; d++ {
		for g := 0; g < groups; g++ {
			buf = append(buf, "dev"...)
			buf = strconv.AppendInt(buf, int64(d), 10)
			buf = append(buf, "/G"...)
			buf = strconv.AppendInt(buf, int64(g), 10)
			ends = append(ends, len(buf))
		}
	}
	for g := 1; g <= groups; g++ {
		buf = append(buf, prim...)
		buf = append(buf, "/G"...)
		buf = strconv.AppendInt(buf, int64(g), 10)
		ends = append(ends, len(buf))
	}
	all := string(buf)
	names := make([]string, n)
	lo := 0
	for i, hi := range ends {
		names[i], lo = all[lo:hi], hi
	}
	return names
}

// groupBytes resolves group g's per-rank payload.
func (o *Options) groupBytes(fs *funcState, plan *gemm.Plan, bounds []gemm.GroupBound, g int) []int64 {
	if o.Prim == hw.AllToAll && fs != nil {
		return fs.ex.GroupBytes(g)
	}
	bytes := int64(bounds[g].Tiles()) * plan.TileBytes()
	if o.Prim == hw.AllToAll && o.Imbalance > 1 {
		bytes = int64(float64(bytes) * o.Imbalance)
	}
	out := make([]int64, o.NGPUs)
	for i := range out {
		out[i] = bytes
	}
	return out
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
