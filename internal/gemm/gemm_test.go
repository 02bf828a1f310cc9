package gemm

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/tensor"
)

func mustPlan(t *testing.T, s Shape, cfg Config) *Plan {
	t.Helper()
	p, err := NewPlan(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShapeBasics(t *testing.T) {
	s := Shape{M: 4, N: 8, K: 2}
	if s.Flops() != 128 {
		t.Fatalf("Flops = %v, want 128", s.Flops())
	}
	if s.OutputBytes() != 64 {
		t.Fatalf("OutputBytes = %v, want 64", s.OutputBytes())
	}
	if s.Validate() != nil {
		t.Fatal("valid shape rejected")
	}
	if (Shape{M: 0, N: 1, K: 1}).Validate() == nil {
		t.Fatal("invalid shape accepted")
	}
	if s.String() != "M4-N8-K2" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestDefaultConfigDivides(t *testing.T) {
	shapes := []Shape{
		{2048, 8192, 8192},
		{100, 36, 7}, // awkward sizes still get a dividing tile
		{128, 128, 128},
	}
	for _, s := range shapes {
		cfg := DefaultConfig(s)
		if s.M%cfg.TileM != 0 || s.N%cfg.TileN != 0 {
			t.Errorf("DefaultConfig(%v) = %+v does not divide", s, cfg)
		}
	}
	if cfg := DefaultConfig(Shape{2048, 8192, 8192}); cfg.TileM != 128 || cfg.TileN != 128 {
		t.Errorf("large shape should pick 128x128 tiles, got %+v", cfg)
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(Shape{100, 100, 100}, Config{TileM: 64, TileN: 64}); err == nil {
		t.Error("non-dividing tile accepted")
	}
	if _, err := NewPlan(Shape{-1, 1, 1}, Config{TileM: 1, TileN: 1}); err == nil {
		t.Error("negative shape accepted")
	}
	if _, err := NewPlan(Shape{4, 4, 4}, Config{TileM: 0, TileN: 2}); err == nil {
		t.Error("zero tile accepted")
	}
	// The tile bound: exactly MaxTiles plans; one more row, or a grid
	// whose tile count overflows int, is rejected by NewPlan and CheckPlan.
	if _, err := NewPlan(Shape{1024, 1024, 1}, Config{TileM: 1, TileN: 1}); err != nil {
		t.Errorf("a grid of exactly MaxTiles tiles rejected: %v", err)
	}
	for _, s := range []Shape{{1025, 1024, 1}, {1 << 30, 1 << 30, 1}, {1 << 62, 1 << 62, 1}} {
		if _, err := NewPlan(s, Config{TileM: 1, TileN: 1}); !errors.Is(err, ErrTooManyTiles) {
			t.Errorf("%v in 1x1 tiles: error %v, want ErrTooManyTiles", s, err)
		}
		if err := CheckPlan(s, Config{TileM: 1, TileN: 1}); !errors.Is(err, ErrTooManyTiles) {
			t.Errorf("CheckPlan(%v): error %v, want ErrTooManyTiles", s, err)
		}
	}
}

func TestPlanGrid(t *testing.T) {
	p := mustPlan(t, Shape{256, 512, 64}, Config{TileM: 128, TileN: 128, Swizzle: 1})
	if p.RowTiles != 2 || p.ColTiles != 4 || p.Tiles != 8 {
		t.Fatalf("grid = %dx%d (%d tiles)", p.RowTiles, p.ColTiles, p.Tiles)
	}
	if p.TileBytes() != 128*128*2 {
		t.Fatalf("TileBytes = %d", p.TileBytes())
	}
}

func TestIdentityOrderWithoutSwizzle(t *testing.T) {
	p := mustPlan(t, Shape{256, 512, 64}, Config{TileM: 128, TileN: 128, Swizzle: 1})
	for pos := 0; pos < p.Tiles; pos++ {
		if idx := p.TileAt(pos); idx != pos {
			t.Fatalf("TileAt(%d) = %d, want identity without swizzle", pos, idx)
		}
		if got := p.PosOf(pos); got != pos {
			t.Fatalf("PosOf(%d) = %d, want identity without swizzle", pos, got)
		}
	}
}

func TestSwizzleOrderIsPermutation(t *testing.T) {
	p := mustPlan(t, Shape{512, 768, 64}, Config{TileM: 128, TileN: 128, Swizzle: 2})
	seen := make([]bool, p.Tiles)
	for pos := 0; pos < p.Tiles; pos++ {
		idx := p.TileAt(pos)
		if idx < 0 || idx >= p.Tiles || seen[idx] {
			t.Fatalf("TileAt is not a permutation: TileAt(%d) = %d", pos, idx)
		}
		seen[idx] = true
		// PosOf must be the inverse.
		if got := p.PosOf(idx); got != pos {
			t.Fatalf("PosOf(%d) = %d, want %d", idx, got, pos)
		}
	}
}

func TestSwizzleOrderIsNotIdentity(t *testing.T) {
	// 4 row-tiles x 6 col-tiles with swizzle 2: the second dispatched tile
	// should be from the same column group, next row region per Fig. 2(b)
	// semantics (non-monotonic in row-major index).
	p := mustPlan(t, Shape{512, 768, 64}, Config{TileM: 128, TileN: 128, Swizzle: 2})
	identity := true
	for pos := 0; pos < p.Tiles; pos++ {
		if p.TileAt(pos) != pos {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("swizzled order should differ from identity")
	}
}

func TestSwizzleExample(t *testing.T) {
	// 2x3 tile grid, swizzle 2: column groups {0,1} then {2}.
	// Expected dispatch: (0,0)(0,1)(1,0)(1,1) then (0,2)(1,2)
	// = indices 0,1,3,4,2,5.
	p := mustPlan(t, Shape{2, 3, 1}, Config{TileM: 1, TileN: 1, Swizzle: 2})
	want := []int{0, 1, 3, 4, 2, 5}
	for pos, w := range want {
		if got := p.TileAt(pos); got != w {
			t.Fatalf("TileAt(%d) = %d, want %d (order %v)", pos, got, w, want)
		}
		if got := p.PosOf(w); got != pos {
			t.Fatalf("PosOf(%d) = %d, want %d", w, got, pos)
		}
	}
}

func TestTileRect(t *testing.T) {
	p := mustPlan(t, Shape{256, 384, 64}, Config{TileM: 128, TileN: 128, Swizzle: 1})
	r0, c0, rows, cols := p.TileRect(4) // tile (1,1) in a 2x3 grid
	if r0 != 128 || c0 != 128 || rows != 128 || cols != 128 {
		t.Fatalf("TileRect(4) = (%d,%d,%d,%d)", r0, c0, rows, cols)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range tile index did not panic")
		}
	}()
	p.TileRect(6)
}

func TestWaves(t *testing.T) {
	p := mustPlan(t, Shape{16, 32, 4}, Config{TileM: 2, TileN: 2, Swizzle: 1}) // 8*16=128 tiles
	cases := []struct{ sms, want int }{
		{128, 1}, {64, 2}, {100, 2}, {127, 2}, {1, 128},
	}
	for _, c := range cases {
		if got := p.Waves(c.sms); got != c.want {
			t.Errorf("Waves(%d) = %d, want %d", c.sms, got, c.want)
		}
	}
}

func TestWaveTilesPartition(t *testing.T) {
	p := mustPlan(t, Shape{10, 10, 4}, Config{TileM: 2, TileN: 2, Swizzle: 1}) // 25 tiles
	sms := 8
	covered := 0
	for w := 0; w < p.Waves(sms); w++ {
		lo, hi := p.WaveTiles(w, sms)
		if lo != covered {
			t.Fatalf("wave %d starts at %d, want %d", w, lo, covered)
		}
		covered = hi
		for pos := lo; pos < hi; pos++ {
			if p.WaveOfPos(pos, sms) != w {
				t.Fatalf("WaveOfPos(%d) != %d", pos, w)
			}
		}
	}
	if covered != p.Tiles {
		t.Fatalf("waves cover %d of %d tiles", covered, p.Tiles)
	}
	// Last wave is partial: 25 = 3*8 + 1.
	lo, hi := p.WaveTiles(3, sms)
	if hi-lo != 1 {
		t.Fatalf("last wave has %d tiles, want 1", hi-lo)
	}
}

// The paper's running example: M=2048, N=K=8192 on an RTX 4090 yields 512
// tiles in 4 waves of 128 (Fig. 3 uses 128x256 tiles: 16 x 32 = 512).
func TestPaperFig3WaveCount(t *testing.T) {
	p := mustPlan(t, Shape{2048, 8192, 8192}, Config{TileM: 128, TileN: 256, Swizzle: 3})
	if p.Tiles != 512 {
		t.Fatalf("tiles = %d, want 512", p.Tiles)
	}
	if got := p.Waves(128); got != 4 {
		t.Fatalf("waves = %d, want 4 (paper: 512 tiles / 128 SMs)", got)
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	cm := NewCostModel(hw.RTX4090PCIe().GPU)
	p := mustPlan(t, Shape{2048, 8192, 8192}, Config{TileM: 128, TileN: 128, Swizzle: 3})
	// Fewer SMs -> more waves -> longer duration.
	d128 := cm.Duration(p, 128)
	d96 := cm.Duration(p, 96)
	if d96 <= d128 {
		t.Fatalf("Duration(96 SMs)=%v should exceed Duration(128 SMs)=%v", d96, d128)
	}
	// Larger K -> longer tiles.
	p2 := mustPlan(t, Shape{2048, 8192, 2048}, Config{TileM: 128, TileN: 128, Swizzle: 3})
	if cm.TileTime(p2, 128) >= cm.TileTime(p, 128) {
		t.Fatal("TileTime should grow with K")
	}
}

func TestCostModelEfficiencyRamp(t *testing.T) {
	cm := NewCostModel(hw.A800NVLink().GPU)
	if cm.Efficiency(128) >= cm.Efficiency(8192) {
		t.Fatal("efficiency should ramp up with K")
	}
	if e := cm.Efficiency(1 << 20); e > cm.GPU.MaxEfficiency {
		t.Fatalf("efficiency %v exceeds max %v", e, cm.GPU.MaxEfficiency)
	}
}

func TestGEMMDurationRealistic(t *testing.T) {
	// 2*2048*8192*8192 = 275 GFLOP at ~75% of 330 TFLOPS ~= 1.1 ms.
	// The paper's Fig. 3 timeline spans ~1.2 ms. Accept 0.5-3 ms.
	cm := NewCostModel(hw.RTX4090PCIe().GPU)
	p := mustPlan(t, Shape{2048, 8192, 8192}, Config{TileM: 128, TileN: 256, Swizzle: 3})
	d := cm.Duration(p, 128).Millis()
	if d < 0.5 || d > 3 {
		t.Fatalf("GEMM duration = %v ms, want ~1.2 ms (order of magnitude)", d)
	}
}

func TestWaveEnds(t *testing.T) {
	cm := NewCostModel(hw.RTX4090PCIe().GPU)
	p := mustPlan(t, Shape{2048, 8192, 8192}, Config{TileM: 128, TileN: 256, Swizzle: 3})
	sms := 128
	last := cm.WaveEnd(p, sms, p.Waves(sms)-1)
	if last != cm.Duration(p, sms) {
		t.Fatalf("last wave end %v != duration %v", last, cm.Duration(p, sms))
	}
	for w := 1; w < p.Waves(sms); w++ {
		if cm.WaveEnd(p, sms, w) <= cm.WaveEnd(p, sms, w-1) {
			t.Fatal("wave ends not increasing")
		}
	}
}

func TestTileCompletionsWavePattern(t *testing.T) {
	cm := NewCostModel(hw.RTX4090PCIe().GPU)
	p := mustPlan(t, Shape{2048, 8192, 8192}, Config{TileM: 128, TileN: 256, Swizzle: 3})
	sms := 128
	comps := cm.TileCompletions(p, sms, 1)
	tt := cm.TileTime(p, sms)
	for pos, c := range comps {
		w := pos / sms
		end := cm.WaveEnd(p, sms, w)
		if c > end || c < end-tt/10 {
			t.Fatalf("tile %d completes at %v, outside 5%%-spread of wave end %v", pos, c, end)
		}
	}
	// The wave straggler sits exactly on the boundary.
	if comps[sms-1] != cm.WaveEnd(p, sms, 0) {
		t.Fatal("wave straggler should define the wave boundary")
	}
}

func TestComputeTileMatchesReference(t *testing.T) {
	s := Shape{8, 12, 5}
	p := mustPlan(t, s, Config{TileM: 4, TileN: 4, Swizzle: 2})
	a := tensor.New(s.M, s.K)
	b := tensor.New(s.K, s.N)
	a.FillRand(1)
	b.FillRand(2)
	ref := tensor.New(s.M, s.N)
	ComputeReference(ref, a, b, nil)
	for idx := 0; idx < p.Tiles; idx++ {
		tile := p.ComputeTile(a, b, idx, nil)
		r0, c0, rows, cols := p.TileRect(idx)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if tile.At(i, j) != ref.At(r0+i, c0+j) {
					t.Fatalf("tile %d element (%d,%d) = %v, ref %v", idx, i, j, tile.At(i, j), ref.At(r0+i, c0+j))
				}
			}
		}
	}
}

func TestComputeAllTilesEqualsReference(t *testing.T) {
	s := Shape{16, 24, 7}
	p := mustPlan(t, s, Config{TileM: 4, TileN: 8, Swizzle: 2})
	a := tensor.New(s.M, s.K)
	b := tensor.New(s.K, s.N)
	a.FillRand(3)
	b.FillRand(4)
	ref := tensor.New(s.M, s.N)
	ComputeReference(ref, a, b, nil)
	got := p.ComputeAllTiles(a, b, nil)
	if !got.Equal(ref) {
		t.Fatalf("tiled result differs from reference, max diff %v", got.MaxDiff(ref))
	}
}

func TestEpilogueApplied(t *testing.T) {
	s := Shape{4, 4, 2}
	p := mustPlan(t, s, Config{TileM: 2, TileN: 2, Swizzle: 1})
	a := tensor.New(s.M, s.K)
	b := tensor.New(s.K, s.N)
	a.FillRand(5)
	b.FillRand(6)
	relu := func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	}
	ref := tensor.New(s.M, s.N)
	ComputeReference(ref, a, b, relu)
	got := p.ComputeAllTiles(a, b, relu)
	if !got.Equal(ref) {
		t.Fatal("epilogue-fused tiled result differs from reference")
	}
	neg := false
	for _, v := range got.Data {
		if v < 0 {
			neg = true
		}
	}
	if neg {
		t.Fatal("relu epilogue left negative values")
	}
}

func TestComputeTileOperandChecks(t *testing.T) {
	p := mustPlan(t, Shape{4, 4, 2}, Config{TileM: 2, TileN: 2, Swizzle: 1})
	defer func() {
		if recover() == nil {
			t.Error("mismatched operands did not panic")
		}
	}()
	p.ComputeTile(tensor.New(3, 2), tensor.New(2, 4), 0, nil)
}

// Property: swizzle order is a permutation for arbitrary grid shapes and
// swizzle sizes.
func TestSwizzlePermutationProperty(t *testing.T) {
	f := func(r, c, s uint8) bool {
		rt, ct := int(r%12)+1, int(c%12)+1
		sw := int(s % 6)
		p, err := NewPlan(Shape{rt, ct, 1}, Config{TileM: 1, TileN: 1, Swizzle: sw})
		if err != nil || p.Tiles != rt*ct {
			return false
		}
		seen := make([]bool, p.Tiles)
		for pos := 0; pos < p.Tiles; pos++ {
			idx := p.TileAt(pos)
			if idx < 0 || idx >= p.Tiles || seen[idx] || p.PosOf(idx) != pos {
				return false
			}
			seen[idx] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tiled computation equals reference for random small shapes.
func TestTiledEqualsReferenceProperty(t *testing.T) {
	f := func(seed uint64, mi, ni, ki uint8) bool {
		m := (int(mi%4) + 1) * 4
		n := (int(ni%4) + 1) * 4
		k := int(ki%8) + 1
		s := Shape{M: m, N: n, K: k}
		p, err := NewPlan(s, Config{TileM: 4, TileN: 4, Swizzle: 2})
		if err != nil {
			return false
		}
		a := tensor.New(m, k)
		b := tensor.New(k, n)
		a.FillRand(seed)
		b.FillRand(seed + 1)
		ref := tensor.New(m, n)
		ComputeReference(ref, a, b, nil)
		return p.ComputeAllTiles(a, b, nil).Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
