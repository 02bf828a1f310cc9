package core

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/gpu"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Fidelity selects how an execution is evaluated: through the
// discrete-event simulator (the ground truth) or through the Algorithm 1
// analytic predictor over an offline-sampled bandwidth curve (orders of
// magnitude cheaper, ~2% mean error on the Fig. 15 shapes). Every Result
// carries the fidelity that produced it, so mixed-fidelity sweeps stay
// auditable after merging.
type Fidelity string

const (
	// FidelityDES is the discrete-event simulation path; the empty string
	// selects it too, keeping zero-valued Options on the ground-truth path.
	FidelityDES Fidelity = "des"
	// FidelityAnalytic evaluates the compiled plan with the Algorithm 1
	// predictor and a bandwidth curve, never touching the event simulator.
	FidelityAnalytic Fidelity = "analytic"
)

// known reports whether f names a fidelity the core can execute ("" means
// DES). The sweep planes layer a "mixed" mode on top, but that is a
// scheduling policy — every individual execution is DES or analytic.
func (f Fidelity) known() bool {
	return f == "" || f == FidelityDES || f == FidelityAnalytic
}

// Options configures one overlapped GEMM+collective execution.
type Options struct {
	// Plat is the hardware profile; NGPUs the parallel group size.
	Plat  hw.Platform
	NGPUs int
	// Shape is the per-GPU GEMM size (the paper reports per-GPU sizes).
	Shape gemm.Shape
	// Cfg optionally pins the GEMM configuration; zero value means
	// gemm.DefaultConfig (the CUTLASS-profiler choice).
	Cfg gemm.Config
	// Prim selects the communication primitive: AllReduce,
	// ReduceScatter, or AllToAll.
	Prim hw.Primitive
	// Partition is the wave-group partition; nil means one wave per
	// group (the untuned baseline of §4.1.1). Use the tuner for the
	// paper's searched partitions.
	Partition gemm.Partition
	// Functional enables real data computation and movement so the
	// output can be compared against a sequential reference. Timing-only
	// sweeps leave it false.
	Functional bool
	// Routing gives per-source token destinations for AllToAll; required
	// when Functional && Prim == AllToAll. Length NGPUs, each of length
	// Shape.M.
	Routing [][]int
	// Imbalance is the max/mean per-rank load factor used for AllToAll
	// timing when no routing is given (>= 1; 0 means balanced).
	Imbalance float64
	// Seed perturbs the functional input data.
	Seed uint64
	// WaveSizeOverride forces the runner to assume this many tiles per
	// wave instead of the available SM count. The paper's Fig. 14 uses a
	// deliberately misconfigured wave size (+20) to show that signaling
	// timing must match the hardware's true wave width.
	WaveSizeOverride int
	// Trace records kernel spans (Result.Trace) for timeline inspection.
	Trace bool
	// Fidelity selects the execution backend: FidelityDES (also the zero
	// value) or FidelityAnalytic. Analytic execution needs a bandwidth
	// curve, so it is reachable through Compiled.ExecAnalytic or the
	// engine's analytic backend, not through Run.
	Fidelity Fidelity
	// DeviceSlowdown optionally gives per-device GEMM slowdown factors
	// (>= 1), modeling thermal throttling or resource contention on part
	// of the group (§4.2.3). The wave pattern is preserved — the whole
	// schedule stretches — and collectives wait for the slowest rank.
	DeviceSlowdown []float64
}

// normalize fills defaults and validates; it returns the resolved plan and
// the wave width (tiles per wave).
func (o *Options) normalize() (*gemm.Plan, int, error) {
	if err := o.Plat.Validate(); err != nil {
		return nil, 0, err
	}
	if o.NGPUs < 2 {
		return nil, 0, fmt.Errorf("core: overlap needs >= 2 GPUs, got %d", o.NGPUs)
	}
	if o.Cfg == (gemm.Config{}) {
		o.Cfg = gemm.DefaultConfig(o.Shape)
	}
	plan, err := gemm.NewPlan(o.Shape, o.Cfg)
	if err != nil {
		return nil, 0, err
	}
	switch o.Prim {
	case hw.AllReduce:
	case hw.ReduceScatter:
		if o.Cfg.TileM%o.NGPUs != 0 {
			return nil, 0, fmt.Errorf("core: ReduceScatter needs TileM %% NGPUs == 0, got %d %% %d", o.Cfg.TileM, o.NGPUs)
		}
	case hw.AllToAll:
	default:
		return nil, 0, fmt.Errorf("core: unsupported primitive %v", o.Prim)
	}
	if err := o.validateVariant(); err != nil {
		return nil, 0, err
	}
	waveSize := o.Plat.GPU.SMs - o.Plat.CommSMs
	if o.WaveSizeOverride != 0 {
		if o.WaveSizeOverride < 1 {
			return nil, 0, fmt.Errorf("core: invalid wave size override %d", o.WaveSizeOverride)
		}
		waveSize = o.WaveSizeOverride
	}
	t := plan.Waves(waveSize)
	if o.Partition == nil {
		o.Partition = gemm.PerWave(t)
	}
	if o.WaveSizeOverride != 0 {
		// Misconfigured wave size (Fig. 14 "mw"): the partition was
		// tuned for the true wave width; thresholds just need to
		// cover the tiles. Bounds are clamped in the runner.
		if o.Partition.TotalWaves()*waveSize < plan.Tiles {
			return nil, 0, fmt.Errorf("core: partition %v at wave size %d does not cover %d tiles",
				o.Partition, waveSize, plan.Tiles)
		}
		return plan, waveSize, nil
	}
	if err := o.Partition.Validate(t); err != nil {
		return nil, 0, err
	}
	return plan, waveSize, nil
}

// validateVariant checks the per-execution knobs — the Options fields a
// Variant may replace on an already-compiled plan.
func (o *Options) validateVariant() error {
	if !o.Fidelity.known() {
		return fmt.Errorf("core: unknown fidelity %q (want %q or %q)", o.Fidelity, FidelityDES, FidelityAnalytic)
	}
	if o.Prim == hw.AllToAll && o.Functional && len(o.Routing) != o.NGPUs {
		return fmt.Errorf("core: functional AllToAll needs %d routing tables, got %d", o.NGPUs, len(o.Routing))
	}
	if o.Imbalance != 0 && o.Imbalance < 1 {
		return fmt.Errorf("core: imbalance factor %v < 1", o.Imbalance)
	}
	if len(o.DeviceSlowdown) != 0 {
		if len(o.DeviceSlowdown) != o.NGPUs {
			return fmt.Errorf("core: %d slowdown factors for %d GPUs", len(o.DeviceSlowdown), o.NGPUs)
		}
		for d, f := range o.DeviceSlowdown {
			if f < 1 {
				return fmt.Errorf("core: device %d slowdown %v < 1", d, f)
			}
		}
	}
	return nil
}

// GroupTiming records what an execution measured for one wave group: its
// payload, when its signal fired and when its collective ended. The group's
// number is its index in Result.Groups, and its extent in waves and tiles
// is its bound in Result.Partition.BoundsClamped(Result.Plan,
// Result.WaveSize), the bounds the execution ran with.
type GroupTiming struct {
	Bytes    int64 // per-rank payload (max across ranks)
	SignalAt sim.Time
	CommEnd  sim.Time
}

// Result is the outcome of one overlapped execution.
type Result struct {
	Plan      *gemm.Plan
	Partition gemm.Partition
	WaveSize  int
	Waves     int
	// Latency is the operator-level latency: from launch to the
	// completion of the last group's communication.
	Latency sim.Time
	// GEMMEnd is when the compute kernel finished (max across devices).
	GEMMEnd sim.Time
	Groups  []GroupTiming
	// Fidelity names the backend that produced this result: FidelityDES
	// for a simulated timeline, FidelityAnalytic for an Algorithm 1
	// prediction. Always set, so merged mixed-fidelity sweeps stay
	// auditable per item.
	Fidelity Fidelity
	// Trace holds per-kernel spans when Options.Trace was set.
	Trace []gpu.Span `json:",omitempty"`

	funcState *funcState
}

// Speedup computes baseline/overlap from a baseline latency.
func (r *Result) Speedup(baseline sim.Time) float64 {
	return float64(baseline) / float64(r.Latency)
}
