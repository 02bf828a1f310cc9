package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs: the
// smallest value with at least p% of the samples at or below it. It sorts a
// copy, so callers may pass live slices. An empty input reads as 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quietPct is the percentile of a run's repetitions that its end-to-end
// times report, and 100-quietPct the one its rates report. A repetition
// is a sweep, a Fig. 15 pass or a closed-loop window of a query workload.
// Every sweep of a run does the same work and merges byte-identical
// results, as does every pass, and closed-loop windows do the same work
// to within about 1%; interference from the rest of a shared host only ever
// adds time, so the fast end of their distribution is the program's own
// cost and the slow end is the host's (J. Chen and J. Revels, "Robust
// benchmarking in noisy environments", 2016). On a 2-CPU host the median
// of a run's sweeps spread 0.10 (interquartile range over median) across
// five runs while their 10th percentile spread 0.04. A tenth rather than
// the minimum, so that one mismeasured repetition cannot set a run's
// result.
const quietPct = 10

// median is the middle of a small set of run-level values (the mean of the
// two middle ones for an even count), used where a handful of repetitions
// is summarized rather than a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed time range in nanoseconds since a tracer's epoch.
type interval struct{ lo, hi int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (a coordinator's shard chunks run
// concurrently), so covered time is the length of the union of the child
// intervals clipped to the parent, never the plain sum.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered int64
	cur := interval{-1, -1}
	for _, c := range clipped {
		if c.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = c
			continue
		}
		cur.hi = max(cur.hi, c.hi)
	}
	covered += cur.hi - cur.lo
	return parent.hi - parent.lo - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
