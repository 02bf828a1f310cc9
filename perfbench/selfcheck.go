package main

import (
	"fmt"
	"math"
	"slices"
)

// selfCheck verifies the benchmark's own arithmetic before any run trusts
// it: nearest-rank percentiles, grouping of query samples into windows,
// self time under overlapping children, and per-seed determinism of the
// generators.
func selfCheck() error {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			return fmt.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, math.Inf(1)}, 50); got != 1 {
		return fmt.Errorf("percentile with a failed sample = %v, want 1", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		return fmt.Errorf("median(1..4) = %v, want 2.5", got)
	}
	// A phase 3.4 windows long has three whole windows; the second holds no
	// sample, the sample at 3.2 windows falls in the partial fourth and the
	// one at -1 has no time, so only the first and third give figures.
	w := int64(window)
	at := []int64{w / 5, 2 * w / 5, 11 * w / 5, 16 * w / 5, -1}
	counts := perWindow(at, make([]float64, len(at)), window*17/5, func(g []float64) float64 { return float64(len(g)) })
	if !slices.Equal(counts, []float64{2, 1}) {
		return fmt.Errorf("perWindow counts = %v, want [2 1]", counts)
	}
	// Parent [0,100]; children [10,30] and [20,50] overlap, [40,45] nests
	// inside the second, [90,120] runs past the parent's end: covered time
	// is [10,50] + [90,100] = 50.
	kids := []interval{{20, 50}, {10, 30}, {40, 45}, {90, 120}}
	if got := selfTime(interval{0, 100}, kids); got != 50 {
		return fmt.Errorf("selfTime with overlapping children = %d, want 50", got)
	}
	if got := selfTime(interval{0, 100}, nil); got != 100 {
		return fmt.Errorf("selfTime without children = %d, want 100", got)
	}
	for _, seed := range []uint64{1, 2} {
		if !slices.Equal(arrivals(seed, 100), arrivals(seed, 100)) {
			return fmt.Errorf("arrivals(%d) differ between calls", seed)
		}
		n := len(universe())
		if !slices.Equal(popularKeys(seed, 1000, n), popularKeys(seed, 1000, n)) {
			return fmt.Errorf("popularKeys(%d) differ between calls", seed)
		}
		if !slices.Equal(sweepGrid(seed, 50), sweepGrid(seed, 50)) {
			return fmt.Errorf("sweepGrid(%d) differs between calls", seed)
		}
	}
	if slices.Equal(arrivals(1, 100), arrivals(2, 100)) || slices.Equal(popularKeys(1, 1000, len(universe())), popularKeys(2, 1000, len(universe()))) ||
		slices.Equal(sweepGrid(1, 50), sweepGrid(2, 50)) {
		return fmt.Errorf("different seeds generate the same inputs")
	}
	gaps := arrivals(3, 200000)
	sum := 0.0
	for _, g := range gaps {
		sum += g
	}
	if mean := sum / float64(len(gaps)); math.Abs(mean-1) > 0.01 {
		return fmt.Errorf("unit-rate arrival gaps average %v, want 1", mean)
	}
	return nil
}
