package core

import (
	"runtime"
	"testing"

	"repro/internal/gemm"
)

func boundsFor(t *testing.T, tiles, sms int, part gemm.Partition) []gemm.GroupBound {
	t.Helper()
	p, err := gemm.NewPlan(gemm.Shape{M: tiles, N: 1, K: 1}, gemm.Config{TileM: 1, TileN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(p.Waves(sms)); err != nil {
		t.Fatal(err)
	}
	return part.Bounds(p, sms)
}

func TestCountingTableFiresAtThreshold(t *testing.T) {
	bounds := boundsFor(t, 8, 2, gemm.Partition{1, 2, 1}) // groups of 2,4,2 tiles
	var fired []int
	ct := NewCountingTable(bounds, func(g int) { fired = append(fired, g) })
	if ct.Groups() != 3 {
		t.Fatalf("Groups = %d", ct.Groups())
	}
	ct.Add(0)
	if len(fired) != 0 {
		t.Fatal("fired before threshold")
	}
	ct.Add(1)
	if len(fired) != 1 || fired[0] != 0 {
		t.Fatalf("fired = %v, want [0]", fired)
	}
	if !ct.Complete(0) || ct.Complete(1) {
		t.Fatal("completion flags wrong")
	}
	// Group 2 can complete before group 1 (out-of-order tile retirement
	// across groups is fine; the counting table is per-group).
	ct.Add(6)
	ct.Add(7)
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [0 2]", fired)
	}
	ct.AddRange(2, 6)
	if len(fired) != 3 || fired[2] != 1 {
		t.Fatalf("fired = %v, want [0 2 1]", fired)
	}
	if ct.Count(1) != 4 {
		t.Fatalf("Count(1) = %d", ct.Count(1))
	}
}

func TestCountingTableDoubleAddPanics(t *testing.T) {
	ct := NewCountingTable(boundsFor(t, 4, 2, gemm.Partition{2}), nil)
	ct.Add(0)
	defer func() {
		if recover() == nil {
			t.Error("double add did not panic")
		}
	}()
	ct.Add(0)
}

func TestCountingTableOutOfRangePanics(t *testing.T) {
	ct := NewCountingTable(boundsFor(t, 4, 2, gemm.Partition{2}), nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range add did not panic")
		}
	}()
	ct.Add(4)
}

func TestCountingTableRejectsGappedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("gapped bounds did not panic")
		}
	}()
	NewCountingTable([]gemm.GroupBound{{PosLo: 1, PosHi: 3}}, nil)
}

func TestCountingTableEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty bounds did not panic")
		}
	}()
	NewCountingTable(nil, nil)
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestCountingTableAddThenWholeGroupPanics(t *testing.T) {
	ct := NewCountingTable(boundsFor(t, 8, 2, gemm.Partition{1, 2, 1}), nil)
	ct.Add(3)
	mustPanic(t, "whole-group range over a counted tile", func() { ct.AddRange(2, 6) })
}

func TestCountingTableWholeGroupThenAddPanics(t *testing.T) {
	ct := NewCountingTable(boundsFor(t, 8, 2, gemm.Partition{1, 2, 1}), nil)
	ct.AddRange(2, 6)
	if !ct.Complete(1) || ct.Count(1) != 4 {
		t.Fatalf("group 1 after its whole range: count %d, complete %v", ct.Count(1), ct.Complete(1))
	}
	mustPanic(t, "Add into a completed group", func() { ct.Add(4) })
}

func TestCountingTableWholeGroupTwicePanics(t *testing.T) {
	fired := 0
	ct := NewCountingTable(boundsFor(t, 8, 2, gemm.Partition{1, 2, 1}), func(int) { fired++ })
	ct.AddRange(2, 6)
	mustPanic(t, "the same whole-group range twice", func() { ct.AddRange(2, 6) })
	if fired != 1 {
		t.Fatalf("group fired %d times, want once", fired)
	}
}

// A range over the tail of one group and the head of the next completes
// both, each once and in position order.
func TestCountingTableRangeAcrossGroups(t *testing.T) {
	var fired []int
	ct := NewCountingTable(boundsFor(t, 8, 2, gemm.Partition{1, 2, 1}), func(g int) { fired = append(fired, g) })
	ct.Add(0)
	ct.AddRange(3, 6)
	if len(fired) != 0 {
		t.Fatalf("fired = %v before any group filled", fired)
	}
	ct.AddRange(1, 3)
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
		t.Fatalf("fired = %v, want [0 1]", fired)
	}
	ct.AddRange(6, 8)
	if len(fired) != 3 || fired[2] != 2 {
		t.Fatalf("fired = %v, want [0 1 2]", fired)
	}
	for g, want := range []int{2, 4, 2} {
		if ct.Count(g) != want || !ct.Complete(g) {
			t.Fatalf("group %d: count %d, complete %v; want %d, true", g, ct.Count(g), ct.Complete(g), want)
		}
	}
}

func TestCountingTableRangePastEndPanics(t *testing.T) {
	ct := NewCountingTable(boundsFor(t, 8, 2, gemm.Partition{1, 2, 1}), nil)
	mustPanic(t, "a range past the last position", func() { ct.AddRange(6, 9) })
}

// A table the runner drives — whole-group ranges only — costs the same
// whatever the tile count: per-group state, no per-tile arrays.
func TestCountingTableWholeGroupBytesIndependentOfTiles(t *testing.T) {
	part := gemm.Partition{1, 2, 1}
	small := tableBytes(boundsFor(t, 64, 16, part))
	large := tableBytes(boundsFor(t, 65536, 16384, part))
	if small != large {
		t.Fatalf("table plus whole-group ranges allocates %d B over 64 tiles but %d B over 65536", small, large)
	}
}

// tableBytes reports the bytes one table plus one whole-group AddRange per
// group allocates, averaged over a fixed loop.
func tableBytes(bounds []gemm.GroupBound) uint64 {
	const runs = 1000
	run := func() {
		ct := NewCountingTable(bounds, nil)
		for _, b := range bounds {
			ct.AddRange(b.PosLo, b.PosHi)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
