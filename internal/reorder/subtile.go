package reorder

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// SubtileLayout is the ReduceScatter-granularity mapping (Fig. 7e). Each
// output tile is split across the row dimension into nGPUs subtiles; within
// every wave group's contiguous buffer range, the buffer is ordered
// GPU-major (all k-th subtiles of the group's tiles together), so a single
// ReduceScatter call over the group range lands the k-th subtile of every
// tile on GPU k. Row completeness is preserved: GPU k ends up owning rows r
// with (r mod TileM) in subtile k, each complete across all N columns once
// every group has arrived.
type SubtileLayout struct {
	Plan   *gemm.Plan
	NGPUs  int
	Bounds []gemm.GroupBound
	// SubRows is TileM / NGPUs.
	SubRows int
	// groupOf maps execution position -> group index.
	groupOf []int
}

// NewSubtileLayout validates divisibility and precomputes the layout.
func NewSubtileLayout(p *gemm.Plan, bounds []gemm.GroupBound, nGPUs int) (*SubtileLayout, error) {
	if nGPUs < 1 {
		return nil, fmt.Errorf("reorder: invalid GPU count %d", nGPUs)
	}
	if p.Cfg.TileM%nGPUs != 0 {
		return nil, fmt.Errorf("reorder: TileM %d not divisible by %d GPUs", p.Cfg.TileM, nGPUs)
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("reorder: no group bounds")
	}
	l := &SubtileLayout{
		Plan:    p,
		NGPUs:   nGPUs,
		Bounds:  bounds,
		SubRows: p.Cfg.TileM / nGPUs,
		groupOf: make([]int, p.Tiles),
	}
	covered := 0
	for g, b := range bounds {
		if b.PosLo != covered {
			return nil, fmt.Errorf("reorder: group %d starts at %d, want %d", g, b.PosLo, covered)
		}
		for pos := b.PosLo; pos < b.PosHi; pos++ {
			l.groupOf[pos] = g
		}
		covered = b.PosHi
	}
	if covered != p.Tiles {
		return nil, fmt.Errorf("reorder: groups cover %d of %d tiles", covered, p.Tiles)
	}
	return l, nil
}

// NewSendBuffer allocates the pre-communication buffer:
// (Tiles*TileM) x TileN, same footprint as the GEMM output.
func (l *SubtileLayout) NewSendBuffer() *tensor.Matrix {
	return tensor.New(l.Plan.Tiles*l.Plan.Cfg.TileM, l.Plan.Cfg.TileN)
}

// NewRecvBuffer allocates one GPU's post-communication buffer:
// (Tiles*SubRows) x TileN.
func (l *SubtileLayout) NewRecvBuffer() *tensor.Matrix {
	return tensor.New(l.Plan.Tiles*l.SubRows, l.Plan.Cfg.TileN)
}

// sendRow returns the send-buffer row where subtile k of the tile at
// execution position pos begins.
func (l *SubtileLayout) sendRow(pos, k int) int {
	b := l.Bounds[l.groupOf[pos]]
	groupTiles := b.Tiles()
	base := b.PosLo * l.Plan.Cfg.TileM // groups are packed back to back
	return base + k*groupTiles*l.SubRows + (pos-b.PosLo)*l.SubRows
}

// ScatterTile splits a computed tile into subtiles and writes each into its
// GPU-major slot. This is the subtile-granularity epilogue reorder, which
// the paper implements as a scattering store in the GEMM epilogue.
func (l *SubtileLayout) ScatterTile(buf *tensor.Matrix, tile *tensor.Matrix, idx int) {
	p := l.Plan
	if tile.Rows != p.Cfg.TileM || tile.Cols != p.Cfg.TileN {
		panic(fmt.Sprintf("reorder: tile is %dx%d, want %dx%d", tile.Rows, tile.Cols, p.Cfg.TileM, p.Cfg.TileN))
	}
	pos := p.PosOf(idx)
	for k := 0; k < l.NGPUs; k++ {
		buf.CopyRect(l.sendRow(pos, k), 0, tile, k*l.SubRows, 0, l.SubRows, p.Cfg.TileN)
	}
}

// GroupSendView returns the contiguous send-buffer range of group g — the
// argument to one ReduceScatter call.
func (l *SubtileLayout) GroupSendView(buf *tensor.Matrix, g int) *tensor.Matrix {
	b := l.Bounds[g]
	tm, tn := l.Plan.Cfg.TileM, l.Plan.Cfg.TileN
	return tensor.FromSlice(b.Tiles()*tm, tn, buf.Data[b.PosLo*tm*tn:b.PosHi*tm*tn])
}

// GroupRecvView returns the recv-buffer range where group g's share lands
// on each GPU. Position p's subtile occupies recv rows
// [p*SubRows, (p+1)*SubRows) independent of grouping, because groups are
// packed in position order on both sides.
func (l *SubtileLayout) GroupRecvView(buf *tensor.Matrix, g int) *tensor.Matrix {
	b := l.Bounds[g]
	sr, tn := l.SubRows, l.Plan.Cfg.TileN
	return tensor.FromSlice(b.Tiles()*sr, tn, buf.Data[b.PosLo*sr*tn:b.PosHi*sr*tn])
}

// LocalRows reports the number of output rows each GPU owns (M / NGPUs).
func (l *SubtileLayout) LocalRows() int { return l.Plan.Shape.M / l.NGPUs }

// GlobalRowOf maps GPU k's local row index to the row of the logical M x N
// matrix it holds: band tr = lr/SubRows, within-band offset k*SubRows +
// lr%SubRows.
func (l *SubtileLayout) GlobalRowOf(k, lr int) int {
	tr := lr / l.SubRows
	return tr*l.Plan.Cfg.TileM + k*l.SubRows + lr%l.SubRows
}

// Gather performs GPU k's post-communication reorder: recv (the
// fully-populated receive buffer) is scattered into dst, the GPU's local
// (M/NGPUs) x N block in band order.
func (l *SubtileLayout) Gather(dst, recv *tensor.Matrix) {
	p := l.Plan
	if dst.Rows != l.LocalRows() || dst.Cols != p.Shape.N {
		panic(fmt.Sprintf("reorder: gather dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, l.LocalRows(), p.Shape.N))
	}
	for pos := 0; pos < p.Tiles; pos++ {
		idx := p.TileAt(pos)
		tr, tc := idx/p.ColTiles, idx%p.ColTiles
		dst.CopyRect(tr*l.SubRows, tc*p.Cfg.TileN, recv, pos*l.SubRows, 0, l.SubRows, p.Cfg.TileN)
	}
}

// GatherFusedRMSNorm fuses the post-communication reorder into a row-wise
// RMSNorm over GPU k's local block (each local row is complete, which is
// exactly why the subtile split exists — §3.3.3).
func (l *SubtileLayout) GatherFusedRMSNorm(dst, recv *tensor.Matrix, weight []float32, eps float64) {
	p := l.Plan
	if dst.Rows != l.LocalRows() || dst.Cols != p.Shape.N {
		panic(fmt.Sprintf("reorder: fused dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, l.LocalRows(), p.Shape.N))
	}
	if len(weight) != p.Shape.N {
		panic(fmt.Sprintf("reorder: weight len %d != N %d", len(weight), p.Shape.N))
	}
	tn := p.Cfg.TileN
	segs := make([][]float32, p.ColTiles)
	for lr := 0; lr < l.LocalRows(); lr++ {
		tr, i := lr/l.SubRows, lr%l.SubRows
		for tc := 0; tc < p.ColTiles; tc++ {
			pos := p.PosOf(tr*p.ColTiles + tc)
			segs[tc] = recv.Row(pos*l.SubRows + i)
		}
		rmsNormSegments(dst.Row(lr), segs, tn, weight, eps)
	}
}

// RowExchange corrects the row order after the AllGather that follows
// ReduceScatter (Fig. 7e): the gathered matrix is ordered GPU-major
// (k, band, in-band row); the exchange is the block-cyclic permutation back
// to natural row order, needing no mapping table.
func RowExchange(dst, src *tensor.Matrix, tileM, nGPUs int) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("reorder: RowExchange shape mismatch")
	}
	if tileM%nGPUs != 0 || src.Rows%tileM != 0 {
		panic(fmt.Sprintf("reorder: RowExchange rows=%d tileM=%d n=%d not divisible", src.Rows, tileM, nGPUs))
	}
	subRows := tileM / nGPUs
	localRows := src.Rows / nGPUs
	for k := 0; k < nGPUs; k++ {
		for lr := 0; lr < localRows; lr++ {
			tr := lr / subRows
			natural := tr*tileM + k*subRows + lr%subRows
			copy(dst.Row(natural), src.Row(k*localRows+lr))
		}
	}
}
