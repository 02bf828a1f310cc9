package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/reorder"
	"repro/internal/tensor"
)

// funcState holds the functional (real-data) side of an overlapped run:
// per-device operands, reorder layouts, and communication buffers.
type funcState struct {
	prim   hw.Primitive
	plan   *gemm.Plan
	bounds []gemm.GroupBound
	n      int

	as, bs []*tensor.Matrix

	// AllReduce state.
	tm     *reorder.TileMapping
	arBufs []*tensor.Matrix

	// ReduceScatter state.
	sl             *reorder.SubtileLayout
	rsSend, rsRecv []*tensor.Matrix

	// AllToAll state.
	ex           *reorder.A2AExchange
	aSend, aRecv [][]float32
}

func newFuncState(o *Options, plan *gemm.Plan, bounds []gemm.GroupBound) (*funcState, error) {
	fs := &funcState{prim: o.Prim, plan: plan, bounds: bounds, n: o.NGPUs}
	for d := 0; d < o.NGPUs; d++ {
		a := tensor.New(plan.Shape.M, plan.Shape.K)
		b := tensor.New(plan.Shape.K, plan.Shape.N)
		a.FillRand(o.Seed + uint64(2*d))
		b.FillRand(o.Seed + uint64(2*d+1))
		fs.as = append(fs.as, a)
		fs.bs = append(fs.bs, b)
	}
	switch o.Prim {
	case hw.AllReduce:
		fs.tm = reorder.NewTileMapping(plan)
		for d := 0; d < o.NGPUs; d++ {
			fs.arBufs = append(fs.arBufs, fs.tm.NewBuffer())
		}
	case hw.ReduceScatter:
		sl, err := reorder.NewSubtileLayout(plan, bounds, o.NGPUs)
		if err != nil {
			return nil, err
		}
		fs.sl = sl
		for d := 0; d < o.NGPUs; d++ {
			fs.rsSend = append(fs.rsSend, sl.NewSendBuffer())
			fs.rsRecv = append(fs.rsRecv, sl.NewRecvBuffer())
		}
	case hw.AllToAll:
		ex, err := reorder.NewA2AExchange(plan, bounds, o.Routing)
		if err != nil {
			return nil, err
		}
		fs.ex = ex
		for d := 0; d < o.NGPUs; d++ {
			fs.aSend = append(fs.aSend, ex.Layouts[d].NewSendBuffer())
			fs.aRecv = append(fs.aRecv, ex.NewRecvBuffer(d))
		}
	}
	return fs, nil
}

// epilogueGroup computes device d's tiles of group g and scatters them
// through the pre-communication reorder — the fused GEMM epilogue.
func (fs *funcState) epilogueGroup(d, g int) {
	b := fs.bounds[g]
	for pos := b.PosLo; pos < b.PosHi; pos++ {
		idx := fs.plan.TileAt(pos)
		tile := fs.plan.ComputeTile(fs.as[d], fs.bs[d], idx, nil)
		switch fs.prim {
		case hw.AllReduce:
			fs.tm.ScatterTile(fs.arBufs[d], tile, idx)
		case hw.ReduceScatter:
			fs.sl.ScatterTile(fs.rsSend[d], tile, idx)
		case hw.AllToAll:
			fs.ex.Layouts[d].ScatterTile(fs.aSend[d], tile, idx)
		}
	}
}

// applier returns group g's functional collective, for the communicator to
// run when the group's collective completes.
func (fs *funcState) applier(g int) func() { return func() { fs.applyGroup(g) } }

// applyGroup performs group g's functional collective over the contiguous
// reordered ranges.
func (fs *funcState) applyGroup(g int) {
	switch fs.prim {
	case hw.AllReduce:
		b := fs.bounds[g]
		views := make([]*tensor.Matrix, fs.n)
		for d := 0; d < fs.n; d++ {
			views[d] = fs.tm.SlotView(fs.arBufs[d], b.PosLo, b.PosHi)
		}
		comm.AllReduceData(views, views)
	case hw.ReduceScatter:
		src := make([]*tensor.Matrix, fs.n)
		dst := make([]*tensor.Matrix, fs.n)
		for d := 0; d < fs.n; d++ {
			src[d] = fs.sl.GroupSendView(fs.rsSend[d], g)
			dst[d] = fs.sl.GroupRecvView(fs.rsRecv[d], g)
		}
		comm.ReduceScatterData(src, dst)
	case hw.AllToAll:
		counts, soffs, roffs := fs.ex.GroupCounts(g)
		comm.AllToAllVData(fs.aSend, fs.aRecv, counts, soffs, roffs)
	}
}

// --- Result accessors for functional outputs ------------------------------

func (r *Result) requireFunc(p hw.Primitive) *funcState {
	if r.funcState == nil {
		panic("core: run was not functional")
	}
	if r.funcState.prim != p {
		panic(fmt.Sprintf("core: run used %v, not %v", r.funcState.prim, p))
	}
	return r.funcState
}

// InputA returns device d's A operand (for building references in tests).
func (r *Result) InputA(d int) *tensor.Matrix {
	if r.funcState == nil {
		panic("core: run was not functional")
	}
	return r.funcState.as[d]
}

// InputB returns device d's B operand.
func (r *Result) InputB(d int) *tensor.Matrix {
	if r.funcState == nil {
		panic("core: run was not functional")
	}
	return r.funcState.bs[d]
}

// AROutput materializes device d's AllReduce result in logical order via
// the post-communication reorder: an M x N matrix equal to sum_i(A_i*B_i).
func (r *Result) AROutput(d int) *tensor.Matrix {
	fs := r.requireFunc(hw.AllReduce)
	out := tensor.New(fs.plan.Shape.M, fs.plan.Shape.N)
	fs.tm.Gather(out, fs.arBufs[d])
	return out
}

// AROutputFusedRMSNorm materializes device d's AllReduce result through the
// RMSNorm-fused post-communication reorder.
func (r *Result) AROutputFusedRMSNorm(d int, weight []float32, eps float64) *tensor.Matrix {
	fs := r.requireFunc(hw.AllReduce)
	out := tensor.New(fs.plan.Shape.M, fs.plan.Shape.N)
	fs.tm.GatherFusedRMSNorm(out, fs.arBufs[d], weight, eps)
	return out
}

// RSLayout exposes the subtile layout (for GlobalRowOf row accounting).
func (r *Result) RSLayout() *reorder.SubtileLayout {
	fs := r.requireFunc(hw.ReduceScatter)
	return fs.sl
}

// RSLocal materializes device d's ReduceScatter share: an (M/NGPUs) x N
// block whose local row lr holds global row RSLayout().GlobalRowOf(d, lr)
// of the reduced matrix.
func (r *Result) RSLocal(d int) *tensor.Matrix {
	fs := r.requireFunc(hw.ReduceScatter)
	out := tensor.New(fs.sl.LocalRows(), fs.plan.Shape.N)
	fs.sl.Gather(out, fs.rsRecv[d])
	return out
}

// A2AExchangeLayout exposes the exchange metadata (reference building).
func (r *Result) A2AExchangeLayout() *reorder.A2AExchange {
	fs := r.requireFunc(hw.AllToAll)
	return fs.ex
}

// A2AOutput materializes device d's All-to-All result: its routed tokens
// stacked in (source, token) order, exactly as a vanilla exchange yields.
func (r *Result) A2AOutput(d int) *tensor.Matrix {
	fs := r.requireFunc(hw.AllToAll)
	out := tensor.New(fs.ex.TokensTo(d), fs.plan.Shape.N)
	fs.ex.Gather(d, out, fs.aRecv[d])
	return out
}
