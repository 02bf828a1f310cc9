package core

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/comm"
	"repro/internal/gemm"
	"repro/internal/gpu"
	"repro/internal/hw"
	"repro/internal/sim"
)

// world is the working memory of a DES execution: the simulator and its
// event heap, the cluster and its devices, the compute and comm streams,
// the signals, done signals and rendezvous, the counting tables and the
// formatted names. Everything an execution builds dies when it ends, so
// executions reuse one another's worlds instead of allocating their own
// (the arena discipline of D. R. Hanson, "Fast allocation and deallocation
// of memory based on object lifetimes", SP&E 1990). reset makes every part
// what its constructor would build, sized from the plan, so a reused world
// runs exactly like a fresh one. A world serves one execution at a time;
// it crosses goroutines only through worlds.
type world struct {
	cluster gpu.Cluster
	com     comm.Communicator
	devs    []*devWorld
	done    []*gpu.Signal // group g's collective-done signal
	perRank []int64       // a group's per-rank payload, read as it is enqueued
	// retireAt[g] is when group g's tiles have all retired, from the
	// GEMM's launch and before the device's jitter.
	retireAt []sim.Time

	// collNames[p][g] names group g's collective of primitive p,
	// "<prim>/G<g+1>"; each name is formatted once per world.
	collNames map[hw.Primitive][]string

	// The execution in progress, which the callbacks read; clear drops it.
	bounds []gemm.GroupBound
	fs     *funcState
	res    *Result
}

// worlds holds the worlds no execution is using. Exec puts a world back
// after a normal return, cancellation included; a world whose execution
// panicked is dropped.
var worlds = sync.Pool{New: func() any { return new(world) }}

// devWorld is one device's part of a world. Its callbacks are bound once,
// when the device joins the world, and read the execution in progress
// through w, so launching the GEMM and retiring its wave groups allocate
// nothing.
type devWorld struct {
	w        *world
	d        int
	cs       gpu.Stream // the compute stream
	ct       CountingTable
	sigs     []gpu.Signal // group g's ready signal, named sigNames[g]
	sigNames []string     // "dev<d>/G<g>", each formatted once per world
	retire   []func()     // group g's wave-retirement event
	kernel   gpu.KernelSpec
	onFill   func(g int) // dw.ready, the counting table's callback
	jf       float64     // this execution's jitter and slowdown factor
	dur      sim.Time    // the GEMM kernel's duration
}

func newDevWorld(w *world, d int) *devWorld {
	dw := &devWorld{w: w, d: d}
	dw.kernel = gpu.KernelSpec{
		Name:       "gemm+epilogue",
		Duration:   func(*gpu.Device, sim.Time) sim.Time { return dw.dur },
		OnStart:    dw.start,
		OnComplete: dw.end,
	}
	dw.onFill = dw.ready
	return dw
}

// reset readies w to execute plan over bounds on o's platform and GPUs,
// recording into res.
func (w *world) reset(o *Options, plan *gemm.Plan, cm gemm.CostModel, bounds []gemm.GroupBound, trueSMs int, fs *funcState, res *Result) {
	n, groups := o.NGPUs, len(bounds)
	w.bounds, w.fs, w.res = bounds, fs, res
	w.cluster.Reset(o.Plat, n)
	if o.Trace {
		w.cluster.EnableTrace()
	}
	w.com.Reset(&w.cluster)
	// Each GEMM schedules its groups' retirements and its own completion
	// at launch; stream wake-ups and collective ends add a few more.
	w.cluster.Sim.Grow(n * (groups + 2))

	if w.collNames == nil {
		w.collNames = make(map[hw.Primitive][]string)
	}
	if names := w.collNames[o.Prim]; len(names) < groups {
		for g := len(names); g < groups; g++ {
			names = append(names, o.Prim.Short()+"/G"+strconv.Itoa(g+1))
		}
		w.collNames[o.Prim] = names
	}
	for len(w.devs) < n {
		w.devs = append(w.devs, newDevWorld(w, len(w.devs)))
	}
	for d, dev := range w.cluster.Devices {
		dw := w.devs[d]
		dw.cs.Reset(dev, "compute")
		dw.ct.reset(bounds, dw.onFill)
		for g := len(dw.retire); g < groups; g++ {
			dw.retire = append(dw.retire, func() {
				b := dw.w.bounds[g]
				dw.ct.AddRange(b.PosLo, b.PosHi)
			})
			dw.sigNames = append(dw.sigNames, "dev"+strconv.Itoa(d)+"/G"+strconv.Itoa(g))
		}
		dw.sigs = slices.Grow(dw.sigs[:0], groups)[:groups]
		for g := range dw.sigs {
			dw.sigs[g].Reset(w.cluster.Sim, dw.sigNames[g])
		}
		w.com.Stream(d).Grow(2 * groups) // a signal wait and a collective per group
	}
	w.perRank = slices.Grow(w.perRank[:0], n)[:n]
	w.done = slices.Grow(w.done[:0], groups)[:groups]
	w.retireAt = slices.Grow(w.retireAt[:0], groups)[:groups]
	for g, b := range bounds {
		// The group's tiles have all retired once ceil(PosHi / trueSMs)
		// true waves have finished — with a misconfigured wave size this
		// is later than the group's nominal boundary, which is exactly
		// the Fig. 14 "mw" degradation.
		w.retireAt[g] = cm.WaveEnd(plan, trueSMs, (b.PosHi+trueSMs-1)/trueSMs-1)
	}
}

// clear drops the execution in progress, so a pooled world keeps no
// result or functional data alive.
func (w *world) clear() { w.bounds, w.fs, w.res = nil, nil, nil }

// scale stretches a duration by the device's jitter and slowdown factor.
func (dw *devWorld) scale(t sim.Time) sim.Time { return sim.Time(float64(t) * dw.jf) }

// start schedules, at the GEMM's launch, the retirement of each wave group.
func (dw *devWorld) start(start sim.Time) {
	for g, at := range dw.w.retireAt {
		dw.w.cluster.Sim.At(start+dw.scale(at), dw.retire[g])
	}
}

func (dw *devWorld) end(end sim.Time) {
	if res := dw.w.res; end > res.GEMMEnd {
		res.GEMMEnd = end
	}
}

// ready runs when the counting table fills group g: the epilogue has
// scattered the group's tiles, and its signal fires.
func (dw *devWorld) ready(g int) {
	if fs := dw.w.fs; fs != nil {
		fs.epilogueGroup(dw.d, g)
	}
	dw.sigs[g].Fire()
}
