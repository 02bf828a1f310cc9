// Package stats holds the small numeric utilities shared by the cost models
// and the experiment harness: piecewise-linear interpolation (used for the
// offline-sampled bandwidth curves of Algorithm 1), summary statistics and
// empirical CDFs (used for the prediction-error study of Fig. 15), and a
// deterministic hash-based jitter source (used to perturb "measured" DES
// latencies without breaking reproducibility).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Point is one sample of a piecewise-linear curve.
type Point struct {
	X, Y float64
}

// Curve is a piecewise-linear function defined by sorted sample points.
// Evaluation outside the sampled range clamps to the boundary values, which
// matches how the paper's tuner treats message sizes beyond the sampled
// bandwidth curve: bandwidth saturates at the last sampled value.
type Curve struct {
	pts []Point
}

// NewCurve builds a curve from points, sorting by X. It panics on fewer than
// one point or duplicate X values, both of which indicate a profiling bug.
func NewCurve(pts []Point) *Curve {
	c, err := MakeCurve(pts)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// MakeCurve is NewCurve for points read from outside the process, such as
// a snapshot's: it returns as an error what NewCurve panics with.
func MakeCurve(pts []Point) (*Curve, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("stats: curve needs at least one point")
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	sort.Slice(cp, func(i, j int) bool { return cp[i].X < cp[j].X })
	for i := 1; i < len(cp); i++ {
		if cp[i].X == cp[i-1].X {
			return nil, fmt.Errorf("stats: duplicate curve sample at x=%v", cp[i].X)
		}
	}
	return &Curve{pts: cp}, nil
}

// Eval evaluates the curve at x with linear interpolation and boundary
// clamping.
func (c *Curve) Eval(x float64) float64 {
	pts := c.pts
	if x <= pts[0].X {
		return pts[0].Y
	}
	last := pts[len(pts)-1]
	if x >= last.X {
		return last.Y
	}
	// Hand-rolled binary search for the bracketing segment — sort.Search
	// would allocate its closure on this hot path (Eval is the inner loop
	// of analytic sweeps). Invariant: pts[i].X < x <= pts[j].X, so the
	// interpolated pair matches "first point with X >= x" exactly.
	i, j := 0, len(pts)-1
	for j-i > 1 {
		m := int(uint(i+j) >> 1)
		if pts[m].X < x {
			i = m
		} else {
			j = m
		}
	}
	lo, hi := pts[i], pts[j]
	frac := (x - lo.X) / (hi.X - lo.X)
	return lo.Y + frac*(hi.Y-lo.Y)
}

// Points returns a copy of the sample points in ascending X order.
func (c *Curve) Points() []Point {
	cp := make([]Point, len(c.pts))
	copy(cp, c.pts)
	return cp
}

// Len reports the number of sample points.
func (c *Curve) Len() int { return len(c.pts) }

// Summary holds the usual scalar statistics of a sample.
type Summary struct {
	N                   int
	Min, Max, Mean, Std float64
}

// Summarize computes summary statistics. An empty input yields a zero
// Summary with N=0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	return s
}

// GeoMean computes the geometric mean of strictly positive values; it panics
// otherwise, since a speedup of zero or below indicates a harness bug.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: geomean of empty sample")
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) using linear interpolation
// between closest ranks. It panics on an empty sample or p outside [0,100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// CDF returns the empirical cumulative distribution of xs evaluated at each
// of the sorted sample values: pairs (x_i, fraction of samples <= x_i).
func CDF(xs []float64) []Point {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]Point, len(sorted))
	for i, x := range sorted {
		out[i] = Point{X: x, Y: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// Jitter is a deterministic pseudo-random source keyed by a stream of
// uint64 labels. It exists so that the DES can add realistic measurement
// noise (kernel launch variance, clock quantization) that is perfectly
// reproducible across runs: the same (seed, keys...) always yields the same
// factor. It is emphatically not a cryptographic or statistical-quality
// generator; splitmix64 is plenty for perturbing latencies by a few percent.
type Jitter struct {
	seed uint64
}

// NewJitter returns a jitter source with the given seed.
func NewJitter(seed uint64) Jitter { return Jitter{seed: seed} }

// splitmix64 advances and scrambles a 64-bit state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uniform returns a deterministic value in [0,1) for the given keys.
func (j Jitter) Uniform(keys ...uint64) float64 {
	h := j.seed
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	h = splitmix64(h)
	return float64(h>>11) / float64(1<<53)
}

// Factor returns a deterministic multiplicative factor in
// [1, 1+amplitude) for the given keys. Models apply it to durations so that
// "measured" latencies sit slightly above idealized predictions, as the
// paper observes (§6.5: actual latency is always slightly higher than
// predicted).
func (j Jitter) Factor(amplitude float64, keys ...uint64) float64 {
	if amplitude < 0 {
		panic("stats: negative jitter amplitude")
	}
	return 1 + amplitude*j.Uniform(keys...)
}

// HashString folds a string into a uint64 key for Jitter (FNV-1a).
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
