package gemm

import (
	"testing"
	"testing/quick"
)

func partitionPlan(t *testing.T, tiles int) *Plan {
	t.Helper()
	p, err := NewPlan(Shape{M: tiles, N: 1, K: 1}, Config{TileM: 1, TileN: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPartitionString(t *testing.T) {
	for _, c := range []struct {
		p    Partition
		want string
	}{
		{Partition{1, 2, 2}, "(1, 2, 2)"},
		{Partition{7}, "(7)"},
		{Partition{2, 10, 10, 33}, "(2, 10, 10, 33)"},
		{Partition{1024, 1}, "(1024, 1)"},
		{nil, "()"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", []int(c.p), got, c.want)
		}
	}
}

func TestBoundsClampedExactFit(t *testing.T) {
	p := partitionPlan(t, 12)
	// Partition (1,2) at wave size 4 covers exactly 12 tiles.
	bounds := Partition{1, 2}.BoundsClamped(p, 4)
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v", bounds)
	}
	if bounds[0].PosHi != 4 || bounds[1].PosHi != 12 {
		t.Fatalf("bounds = %+v", bounds)
	}
}

func TestBoundsClampedOvershoot(t *testing.T) {
	p := partitionPlan(t, 12)
	// Wave size 5: thresholds 5, 15->12; trailing group absorbs less.
	bounds := Partition{1, 2}.BoundsClamped(p, 5)
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v", bounds)
	}
	if bounds[0].PosHi != 5 || bounds[1].PosHi != 12 {
		t.Fatalf("bounds = %+v", bounds)
	}
}

func TestBoundsClampedDropsEmptyGroups(t *testing.T) {
	p := partitionPlan(t, 12)
	// Wave size 10: thresholds 10, 30->12, 40->12; third group is empty.
	bounds := Partition{1, 2, 1}.BoundsClamped(p, 10)
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v, want empty trailing group dropped", bounds)
	}
	if bounds[1].PosLo != 10 || bounds[1].PosHi != 12 {
		t.Fatalf("bounds = %+v", bounds)
	}
}

func TestBoundsClampedPanics(t *testing.T) {
	p := partitionPlan(t, 12)
	for name, fn := range map[string]func(){
		"wave-size": func() { Partition{12}.BoundsClamped(p, 0) },
		"coverage":  func() { Partition{1}.BoundsClamped(p, 4) },
		"neg-group": func() { Partition{-1, 20}.BoundsClamped(p, 4) },
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

// Property: clamped bounds always partition [0, Tiles) contiguously with
// non-empty groups, for any covering partition and wave size.
func TestBoundsClampedPartitionProperty(t *testing.T) {
	f := func(tilesRaw, waveRaw uint8, sizes [4]uint8) bool {
		tiles := int(tilesRaw%60) + 1
		wave := int(waveRaw%12) + 1
		var part Partition
		total := 0
		for _, s := range sizes {
			g := int(s%4) + 1
			part = append(part, g)
			total += g
		}
		if total*wave < tiles {
			return true // not a covering partition; skip
		}
		p, err := NewPlan(Shape{M: tiles, N: 1, K: 1}, Config{TileM: 1, TileN: 1})
		if err != nil {
			return false
		}
		bounds := part.BoundsClamped(p, wave)
		covered := 0
		for _, b := range bounds {
			if b.PosLo != covered || b.PosHi <= b.PosLo {
				return false
			}
			covered = b.PosHi
		}
		return covered == tiles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bounds group tile counts sum to the plan's tiles and waves map
// to the wave range they claim.
func TestBoundsProperty(t *testing.T) {
	f := func(tilesRaw, waveRaw uint8) bool {
		tiles := int(tilesRaw%60) + 1
		wave := int(waveRaw%12) + 1
		p, err := NewPlan(Shape{M: tiles, N: 1, K: 1}, Config{TileM: 1, TileN: 1})
		if err != nil {
			return false
		}
		t := p.Waves(wave)
		part := EqualSized(t, 2)
		bounds := part.Bounds(p, wave)
		covered := 0
		for _, b := range bounds {
			if b.PosLo != covered {
				return false
			}
			covered = b.PosHi
		}
		return covered == tiles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
