package reorder

import (
	"testing"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// planFor builds a small plan with swizzling so the execution order is a
// non-trivial permutation.
func planFor(t *testing.T, m, n, k, tileM, tileN, swizzle int) *gemm.Plan {
	t.Helper()
	p, err := gemm.NewPlan(gemm.Shape{M: m, N: n, K: k}, gemm.Config{TileM: tileM, TileN: tileN, Swizzle: swizzle})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// computeC returns a reference C = A*B for a plan, along with A and B.
func computeC(t *testing.T, p *gemm.Plan, seed uint64) (c, a, b *tensor.Matrix) {
	t.Helper()
	a = tensor.New(p.Shape.M, p.Shape.K)
	b = tensor.New(p.Shape.K, p.Shape.N)
	a.FillRand(seed)
	b.FillRand(seed + 1)
	c = tensor.New(p.Shape.M, p.Shape.N)
	gemm.ComputeReference(c, a, b, nil)
	return c, a, b
}

func TestTileMappingRoundTrip(t *testing.T) {
	p := planFor(t, 16, 24, 5, 4, 8, 2)
	tm := NewTileMapping(p)
	c, a, b := computeC(t, p, 1)

	buf := tm.NewBuffer()
	for idx := 0; idx < p.Tiles; idx++ {
		tm.ScatterTile(buf, p.ComputeTile(a, b, idx, nil), idx)
	}
	got := tensor.New(p.Shape.M, p.Shape.N)
	tm.Gather(got, buf)
	if !got.Equal(c) {
		t.Fatalf("scatter+gather lost data, max diff %v", got.MaxDiff(c))
	}
}

func TestTileMappingSlotIsExecutionPosition(t *testing.T) {
	p := planFor(t, 8, 12, 2, 4, 4, 2)
	tm := NewTileMapping(p)
	for pos := 0; pos < p.Tiles; pos++ {
		idx := tm.TileOf(pos)
		if idx != p.TileAt(pos) {
			t.Fatalf("TileOf(%d) = %d, want the tile launched there, %d", pos, idx, p.TileAt(pos))
		}
		if tm.SlotOf(idx) != pos {
			t.Fatalf("SlotOf(%d) = %d, want execution position %d", idx, tm.SlotOf(idx), pos)
		}
	}
}

func TestTileMappingBufferShape(t *testing.T) {
	p := planFor(t, 16, 24, 5, 4, 8, 2)
	tm := NewTileMapping(p)
	r, c := tm.BufferShape()
	if r != p.Tiles*4 || c != 8 {
		t.Fatalf("BufferShape = %dx%d", r, c)
	}
	if r*c != p.Shape.M*p.Shape.N {
		t.Fatal("buffer footprint must equal output footprint")
	}
}

// A wave group's slots must be one contiguous memory range — the property
// that enables a single NCCL call per group.
func TestTileMappingGroupContiguity(t *testing.T) {
	p := planFor(t, 16, 24, 5, 4, 8, 3)
	tm := NewTileMapping(p)
	c, a, b := computeC(t, p, 2)
	buf := tm.NewBuffer()
	for idx := 0; idx < p.Tiles; idx++ {
		tm.ScatterTile(buf, p.ComputeTile(a, b, idx, nil), idx)
	}
	lo, hi := 2, 5
	view := tm.SlotView(buf, lo, hi)
	// The view must alias the buffer (zero copy) and contain exactly the
	// tiles at execution positions lo..hi-1.
	view.Set(0, 0, 12345)
	if buf.At(lo*p.Cfg.TileM, 0) != 12345 {
		t.Fatal("SlotView must alias the buffer")
	}
	buf.Set(lo*p.Cfg.TileM, 0, 0) // restore
	for s := lo; s < hi; s++ {
		idx := tm.TileOf(s)
		r0, c0, rows, cols := p.TileRect(idx)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want := c.At(r0+i, c0+j)
				if got := view.At((s-lo)*p.Cfg.TileM+i, j); got != want && !(s == lo && i == 0 && j == 0) {
					t.Fatalf("slot %d tile %d mismatch at (%d,%d): %v vs %v", s, idx, i, j, got, want)
				}
			}
		}
	}
}

func TestTileMappingFusedRMSNorm(t *testing.T) {
	p := planFor(t, 16, 24, 5, 4, 8, 2)
	tm := NewTileMapping(p)
	c, a, b := computeC(t, p, 3)
	buf := tm.NewBuffer()
	for idx := 0; idx < p.Tiles; idx++ {
		tm.ScatterTile(buf, p.ComputeTile(a, b, idx, nil), idx)
	}
	weight := make([]float32, p.Shape.N)
	for i := range weight {
		weight[i] = 1 + float32(i%5)*0.1
	}
	want := tensor.New(p.Shape.M, p.Shape.N)
	tensor.RMSNorm(want, c, weight, 1e-6)
	got := tensor.New(p.Shape.M, p.Shape.N)
	tm.GatherFusedRMSNorm(got, buf, weight, 1e-6)
	if !got.AllClose(want, 1e-6, 1e-6) {
		t.Fatalf("fused RMSNorm differs from unfused, max diff %v", got.MaxDiff(want))
	}
}

func TestTileMappingPanics(t *testing.T) {
	p := planFor(t, 8, 8, 2, 4, 4, 1)
	tm := NewTileMapping(p)
	buf := tm.NewBuffer()
	for name, fn := range map[string]func(){
		"bad-tile":   func() { tm.ScatterTile(buf, tensor.New(2, 2), 0) },
		"bad-range":  func() { tm.SlotView(buf, 3, 3) },
		"bad-gather": func() { tm.Gather(tensor.New(4, 4), buf) },
		"bad-weight": func() { tm.GatherFusedRMSNorm(tensor.New(8, 8), buf, []float32{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
