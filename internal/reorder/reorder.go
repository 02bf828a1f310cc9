// Package reorder implements the pre- and post-communication reordering of
// §3.3: mapping tables that place tiles (AllReduce), subtiles
// (ReduceScatter), or subtokens (All-to-All) at contiguous addresses in
// execution-order before communication, and restore logical order after.
//
// The pre-communication reorder is what lets a wave group be communicated
// with a single NCCL-style API call over one contiguous range; the
// post-communication reorder is designed to be fusable into the next
// element-wise kernel (it is a gather through a mapping table, see Fused
// variants and the Table 5 overhead study).
package reorder

import (
	"fmt"
	"math"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// TileMapping is the AllReduce-granularity mapping (Fig. 7d): tile t of the
// GEMM output is stored in communication-buffer slot Plan.PosOf(t) (its
// execution position), so each wave group occupies one contiguous slot
// range.
type TileMapping struct {
	Plan *gemm.Plan
}

// NewTileMapping builds the mapping for a plan.
func NewTileMapping(p *gemm.Plan) *TileMapping { return &TileMapping{Plan: p} }

// BufferShape returns the (rows, cols) of the communication buffer: a
// column of tiles, each tile row-major (the "reshaped into a column of
// tiles" layout of §3.3.4).
func (tm *TileMapping) BufferShape() (rows, cols int) {
	return tm.Plan.Tiles * tm.Plan.Cfg.TileM, tm.Plan.Cfg.TileN
}

// NewBuffer allocates a zeroed communication buffer.
func (tm *TileMapping) NewBuffer() *tensor.Matrix {
	r, c := tm.BufferShape()
	return tensor.New(r, c)
}

// SlotOf reports the buffer slot of tile idx (its execution position).
func (tm *TileMapping) SlotOf(idx int) int { return tm.Plan.PosOf(idx) }

// TileOf reports which tile occupies buffer slot s.
func (tm *TileMapping) TileOf(s int) int { return tm.Plan.TileAt(s) }

// ScatterTile writes a computed tile into its slot of the communication
// buffer. This is the epilogue-fused pre-communication reorder.
func (tm *TileMapping) ScatterTile(buf *tensor.Matrix, tile *tensor.Matrix, idx int) {
	p := tm.Plan
	if tile.Rows != p.Cfg.TileM || tile.Cols != p.Cfg.TileN {
		panic(fmt.Sprintf("reorder: tile is %dx%d, want %dx%d", tile.Rows, tile.Cols, p.Cfg.TileM, p.Cfg.TileN))
	}
	slot := tm.SlotOf(idx)
	buf.CopyRect(slot*p.Cfg.TileM, 0, tile, 0, 0, p.Cfg.TileM, p.Cfg.TileN)
}

// SlotView returns a view of the contiguous slot range [lo, hi) of buf — the
// range handed to one collective call for a wave group.
func (tm *TileMapping) SlotView(buf *tensor.Matrix, lo, hi int) *tensor.Matrix {
	p := tm.Plan
	if lo < 0 || hi > p.Tiles || lo >= hi {
		panic(fmt.Sprintf("reorder: slot range [%d,%d) out of %d", lo, hi, p.Tiles))
	}
	tmr := p.Cfg.TileM
	return tensor.FromSlice((hi-lo)*tmr, p.Cfg.TileN, buf.Data[lo*tmr*p.Cfg.TileN:hi*tmr*p.Cfg.TileN])
}

// Gather performs the post-communication reorder: it reads every slot of
// buf and writes the tile back to its logical rectangle in dst (M x N).
func (tm *TileMapping) Gather(dst, buf *tensor.Matrix) {
	p := tm.Plan
	if dst.Rows != p.Shape.M || dst.Cols != p.Shape.N {
		panic(fmt.Sprintf("reorder: gather dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, p.Shape.M, p.Shape.N))
	}
	for s := 0; s < p.Tiles; s++ {
		idx := tm.TileOf(s)
		r0, c0, rows, cols := p.TileRect(idx)
		dst.CopyRect(r0, c0, buf, s*p.Cfg.TileM, 0, rows, cols)
	}
}

// GatherFusedRMSNorm applies RMSNorm row-wise to the logical matrix while
// gathering directly from the reordered buffer — the fusion the paper uses
// to hide the post-communication reorder inside the next element-wise
// kernel (§3.3.4, Table 5). Instead of loading rows from a contiguous
// logical matrix, each logical row is assembled from its ColTiles slots via
// the mapping table; the extra cost is the table indirection, not extra
// data volume.
func (tm *TileMapping) GatherFusedRMSNorm(dst, buf *tensor.Matrix, weight []float32, eps float64) {
	p := tm.Plan
	if dst.Rows != p.Shape.M || dst.Cols != p.Shape.N {
		panic(fmt.Sprintf("reorder: fused dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, p.Shape.M, p.Shape.N))
	}
	if len(weight) != p.Shape.N {
		panic(fmt.Sprintf("reorder: weight len %d != N %d", len(weight), p.Shape.N))
	}
	tmr, tnc := p.Cfg.TileM, p.Cfg.TileN
	// Two passes over the row's segments — sum of squares, then the
	// normalized store — so the fused kernel touches exactly the same
	// data volume as the unfused one plus the mapping-table indirection.
	segs := make([][]float32, p.ColTiles)
	for r := 0; r < p.Shape.M; r++ {
		tr, ir := r/tmr, r%tmr
		for tc := 0; tc < p.ColTiles; tc++ {
			slot := tm.SlotOf(tr*p.ColTiles + tc)
			segs[tc] = buf.Row(slot*tmr + ir)
		}
		rmsNormSegments(dst.Row(r), segs, tnc, weight, eps)
	}
}

// rmsNormSegments normalizes a logical row given as per-tile segments,
// writing the result contiguously into dst. weight is indexed by the
// logical column.
func rmsNormSegments(dst []float32, segs [][]float32, segWidth int, weight []float32, eps float64) {
	var sq float64
	for _, seg := range segs {
		for _, v := range seg {
			sq += float64(v) * float64(v)
		}
	}
	inv := 1 / math.Sqrt(sq/float64(len(segs)*segWidth)+eps)
	for tc, seg := range segs {
		out := dst[tc*segWidth : (tc+1)*segWidth]
		w := weight[tc*segWidth : (tc+1)*segWidth]
		for j, v := range seg {
			out[j] = float32(float64(v)*inv) * w[j]
		}
	}
}

func rmsNormRow(dst, src []float32, weight []float32, eps float64) {
	var sq float64
	for _, v := range src {
		sq += float64(v) * float64(v)
	}
	inv := 1 / math.Sqrt(sq/float64(len(src))+eps)
	for j, v := range src {
		dst[j] = float32(float64(v)*inv) * weight[j]
	}
}
