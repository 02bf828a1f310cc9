package gemm

import "testing"

// swizzleOrder materializes the launch order the way a CUTLASS-style
// rasterizer walks it: column groups of s tiles, each walked row-major.
// It is the reference Plan.TileAt and Plan.PosOf are checked against.
func swizzleOrder(rowTiles, colTiles, s int) []int {
	order := make([]int, 0, rowTiles*colTiles)
	if s <= 1 {
		for i := 0; i < rowTiles*colTiles; i++ {
			order = append(order, i)
		}
		return order
	}
	for cg := 0; cg < colTiles; cg += s {
		hi := cg + s
		if hi > colTiles {
			hi = colTiles
		}
		for r := 0; r < rowTiles; r++ {
			for c := cg; c < hi; c++ {
				order = append(order, r*colTiles+c)
			}
		}
	}
	return order
}

// checkOrder holds p's closed-form launch order to the reference.
func checkOrder(t *testing.T, p *Plan) {
	t.Helper()
	for pos, idx := range swizzleOrder(p.RowTiles, p.ColTiles, p.Cfg.Swizzle) {
		if got := p.TileAt(pos); got != idx {
			t.Fatalf("%dx%d swizzle %d: TileAt(%d) = %d, want %d", p.RowTiles, p.ColTiles, p.Cfg.Swizzle, pos, got, idx)
		}
		if got := p.PosOf(idx); got != pos {
			t.Fatalf("%dx%d swizzle %d: PosOf(%d) = %d, want %d", p.RowTiles, p.ColTiles, p.Cfg.Swizzle, idx, got, pos)
		}
	}
}

func TestLaunchOrderMatchesReference(t *testing.T) {
	for rt := 1; rt <= 16; rt++ {
		for ct := 1; ct <= 16; ct++ {
			for sw := 0; sw <= 8; sw++ {
				checkOrder(t, mustPlan(t, Shape{rt, ct, 1}, Config{TileM: 1, TileN: 1, Swizzle: sw}))
			}
		}
	}
	// The largest grid the paper's figures build: 400x64 tiles.
	big := Shape{51200, 8192, 4096}
	for _, sw := range []int{0, 3, 5} {
		p := mustPlan(t, big, Config{TileM: 128, TileN: 128, Swizzle: sw})
		if p.Tiles != 25600 {
			t.Fatalf("%v: %d tiles, want 25600", big, p.Tiles)
		}
		checkOrder(t, p)
	}
}

func TestLaunchOrderRejectsOutOfRange(t *testing.T) {
	p := mustPlan(t, Shape{2, 3, 1}, Config{TileM: 1, TileN: 1, Swizzle: 2})
	for name, f := range map[string]func(){
		"TileAt(-1)": func() { p.TileAt(-1) },
		"TileAt(6)":  func() { p.TileAt(6) },
		"PosOf(-1)":  func() { p.PosOf(-1) },
		"PosOf(6)":   func() { p.PosOf(6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// A plan holds nothing per tile, so building even the largest one
// allocates the Plan alone.
func TestNewPlanAllocatesOnlyThePlan(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewPlan(Shape{1024, 1024, 1}, Config{TileM: 1, TileN: 1, Swizzle: 3}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("NewPlan of a %d-tile grid: %v allocations, want 1", MaxTiles, allocs)
	}
}
