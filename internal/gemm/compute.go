package gemm

import (
	"fmt"

	"repro/internal/tensor"
)

// Epilogue is an element-wise operation fused after the tile matmul (bias
// add, activation); it is applied in place to each computed tile, matching
// §2.1.3 (main loop + epilogue). A nil Epilogue is the identity.
type Epilogue func(v float32) float32

// ComputeReference computes c = a*b (+ epilogue) sequentially. It is the
// "cuBLAS" reference that every overlap path is validated against.
func ComputeReference(c, a, b *tensor.Matrix, ep Epilogue) {
	tensor.MatMul(c, a, b)
	if ep != nil {
		for i, v := range c.Data {
			c.Data[i] = ep(v)
		}
	}
}

// checkOperands validates a GEMM triple against the plan's shape.
func (p *Plan) checkOperands(a, b *tensor.Matrix) {
	if a.Rows != p.Shape.M || a.Cols != p.Shape.K {
		panic(fmt.Sprintf("gemm: A is %dx%d, want %dx%d", a.Rows, a.Cols, p.Shape.M, p.Shape.K))
	}
	if b.Rows != p.Shape.K || b.Cols != p.Shape.N {
		panic(fmt.Sprintf("gemm: B is %dx%d, want %dx%d", b.Rows, b.Cols, p.Shape.K, p.Shape.N))
	}
}

// ComputeTile computes output tile idx of c = a*b (+ epilogue) and returns
// it as a fresh TileM x TileN matrix. This is the functional unit the
// overlap runner invokes per tile, writing the result wherever the
// pre-communication reordering dictates.
func (p *Plan) ComputeTile(a, b *tensor.Matrix, idx int, ep Epilogue) *tensor.Matrix {
	p.checkOperands(a, b)
	r0, c0, rows, cols := p.TileRect(idx)
	out := tensor.New(rows, cols)
	k := p.Shape.K
	for i := 0; i < rows; i++ {
		oi := out.Data[i*cols : (i+1)*cols]
		ai := a.Data[(r0+i)*a.Cols : (r0+i)*a.Cols+k]
		for kk := 0; kk < k; kk++ {
			av := ai[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*b.Cols+c0 : kk*b.Cols+c0+cols]
			for j, bv := range brow {
				oi[j] += av * bv
			}
		}
	}
	if ep != nil {
		for i, v := range out.Data {
			out.Data[i] = ep(v)
		}
	}
	return out
}

// ComputeAllTiles computes c = a*b tile by tile in execution order,
// assembling the result into a full matrix. It must agree exactly with
// ComputeReference (the tile decomposition preserves the K-loop order), and
// the tests assert that; the overlap runner relies on this equivalence for
// the paper's "mathematically equivalent" claim.
func (p *Plan) ComputeAllTiles(a, b *tensor.Matrix, ep Epilogue) *tensor.Matrix {
	p.checkOperands(a, b)
	c := tensor.New(p.Shape.M, p.Shape.N)
	for pos := 0; pos < p.Tiles; pos++ {
		idx := p.TileAt(pos)
		tile := p.ComputeTile(a, b, idx, ep)
		r0, c0, rows, cols := p.TileRect(idx)
		c.CopyRect(r0, c0, tile, 0, 0, rows, cols)
	}
	return c
}
