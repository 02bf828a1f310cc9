package shard

import (
	"testing"

	"repro/internal/expt"
	"repro/internal/gemm"
)

// quickGridShapes returns the distinct shapes of the quick Table 3 grids —
// the canonical sweep key set the partitioner must spread well.
func quickGridShapes() []gemm.Shape {
	seen := map[gemm.Shape]bool{}
	var out []gemm.Shape
	for _, grid := range expt.Table3Grids(true) {
		for _, s := range grid.Shapes {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// Every key must have exactly one owner at every shard count, and the
// replica-side predicate (Assignment.Owns) must agree with the router-side
// mapping (Partitioner.Owner) — two processes computing ownership
// independently may never disagree.
func TestEveryKeyOwnedByExactlyOneShard(t *testing.T) {
	shapes := quickGridShapes()
	if len(shapes) == 0 {
		t.Fatal("no quick-grid shapes")
	}
	for n := 1; n <= 8; n++ {
		p := NewPartitioner(n)
		for _, s := range shapes {
			owner := p.Owner(s)
			if owner < 0 || owner >= n {
				t.Fatalf("n=%d: owner(%v) = %d out of range", n, s, owner)
			}
			owners := 0
			for k := 0; k < n; k++ {
				a := Assignment{Index: k, Count: n}
				if a.Owns(s) != p.Owns(k, s) {
					t.Fatalf("n=%d k=%d: Assignment.Owns and Partitioner.Owns disagree on %v", n, k, s)
				}
				if a.Owns(s) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d: shape %v owned by %d shards, want exactly 1", n, s, owners)
			}
		}
	}
}

// The quick Table 3 grid must balance within ±1 shape per shard at every
// fleet size up to 8 — the property that keeps replica caches equally warm.
// The hash seed is chosen for exactly this grid; a failure here means the
// seed must be re-searched (see hashSeed).
func TestPartitionerBalancesQuickGrid(t *testing.T) {
	shapes := quickGridShapes()
	for n := 2; n <= 8; n++ {
		counts := make([]int, n)
		p := NewPartitioner(n)
		for _, s := range shapes {
			counts[p.Owner(s)]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Errorf("n=%d: shard loads %v spread %d, want <= 1", n, counts, max-min)
		}
	}
}

// Ownership must be insensitive to which shape within a lattice cell is
// queried: shapes the tuner cache would match against each other land on the
// same shard, so the fleet's caches stay disjoint.
func TestNearbyShapesShareAShard(t *testing.T) {
	p := NewPartitioner(4)
	base := gemm.Shape{M: 4096, N: 8192, K: 8192}
	near := gemm.Shape{M: 4096, N: 8192, K: 8000} // same half-log cell
	if p.Owner(base) != p.Owner(near) {
		t.Errorf("cache-adjacent shapes %v and %v on different shards", base, near)
	}
	bx, by := p.Cell(base)
	nx, ny := p.Cell(near)
	if bx != nx || by != ny {
		t.Fatalf("cells differ: (%d,%d) vs (%d,%d)", bx, by, nx, ny)
	}
}

func TestParseAssignment(t *testing.T) {
	good := map[string]Assignment{
		"":    {},
		"0/1": {Index: 0, Count: 1},
		"2/4": {Index: 2, Count: 4},
		"7/8": {Index: 7, Count: 8},
	}
	for raw, want := range good {
		got, err := ParseAssignment(raw)
		if err != nil || got != want {
			t.Errorf("ParseAssignment(%q) = %v, %v; want %v", raw, got, err, want)
		}
		if got.String() != raw && raw != "" {
			t.Errorf("Assignment(%q).String() = %q", raw, got.String())
		}
	}
	for _, raw := range []string{"3", "4/4", "-1/4", "1/0", "a/b", "1/4/2"} {
		if _, err := ParseAssignment(raw); err == nil {
			t.Errorf("ParseAssignment(%q) accepted", raw)
		}
	}
	if (Assignment{}).Sharded() {
		t.Error("zero assignment claims to be sharded")
	}
	if !(Assignment{}).Owns(gemm.Shape{M: 1, N: 1, K: 1}) {
		t.Error("unsharded assignment must own everything")
	}
}
