// Package metrics is the mergeable half of the stats plane every layer
// counts into: fixed-boundary latency histograms and the generic snapshot
// merge. A counter is a plain atomic.Uint64 field of the struct that owns
// it, and a histogram a Histogram value field; each layer copies them into
// a snapshot struct whose JSON tags are its /stats keys. Snapshot structs
// are plain data, and MergeSnapshots folds two of them by reflection:
// numeric fields sum, string sets union, histograms add bucket-wise, maps
// merge by key union. A field added to a snapshot struct participates in
// every merge automatically, so no layer keeps a field-by-field merge that
// could forget a counter.
//
// Histograms use fixed bucket boundaries, so two replicas' histograms
// merge by bucket-wise sum into exactly the histogram a single process
// observing both streams would have built: shard-merged percentiles are
// exact at bucket resolution, not an approximation of an approximation.
package metrics

import (
	"encoding/json"
	"sort"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. The boundaries
// are compile-time constants shared by every process in a fleet, which is
// what makes shard-merged histograms exact: two replicas bucket any given
// observation identically, so bucket-wise sums reconstruct the histogram a
// single observer would have built.
const NumBuckets = 64

// bucketBounds[i] is the inclusive upper bound, in nanoseconds, of bucket i;
// the last bucket (NumBuckets-1) is the overflow bucket and has no upper
// bound. Bounds grow geometrically by ~sqrt(2) per bucket — built by the
// integer recurrence bounds[i] = bounds[i-2] * 2 from 1µs and 1.414µs — so
// the table is exactly reproducible on any platform (no floating point in
// the boundary math) and spans 1µs to ~36min: a warm in-process cache hit
// lands near the bottom, a cold multi-minute fleet sweep still resolves
// near the top, and any quantile is off by at most a factor of sqrt(2).
var bucketBounds = func() [NumBuckets - 1]uint64 {
	var b [NumBuckets - 1]uint64
	b[0] = 1000 // 1µs
	b[1] = 1414 // ~sqrt(2)µs
	for i := 2; i < len(b); i++ {
		b[i] = b[i-2] * 2
	}
	return b
}()

// bucketIndex places a duration (ns) into its bucket: the first bucket
// whose upper bound covers it, or the overflow bucket. Binary search over a
// fixed array — no allocation, so Observe stays legal on zero-alloc paths.
func bucketIndex(ns uint64) int {
	lo, hi := 0, len(bucketBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == NumBuckets-1 when ns exceeds every bound
}

// BucketBound returns bucket i's inclusive upper bound. The overflow
// bucket reports twice the last finite bound — a sentinel cap so quantiles
// that land in it still return a finite, deterministic value.
func BucketBound(i int) time.Duration {
	if i < len(bucketBounds) {
		return time.Duration(bucketBounds[i])
	}
	return time.Duration(2 * bucketBounds[len(bucketBounds)-1])
}

// Histogram is a fixed-boundary log-bucketed latency histogram. Observe is
// wait-free and allocation-free (binary search plus three atomic adds), so
// it is safe on the pre-encoded warm /query fast path whose contract is
// zero allocations per request. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures the histogram's current state. Counters are read
// independently, so a snapshot under concurrent load is approximate (each
// bucket is itself exact); trailing empty buckets are trimmed so a
// low-latency histogram serializes compactly.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNs: h.sum.Load()}
	last := -1
	var buckets [NumBuckets]uint64
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		if buckets[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), buckets[:last+1]...)
	}
	return s
}

// HistogramSnapshot is a histogram's point-in-time wire form. It is plain
// mergeable state: under MergeSnapshots Count and SumNs sum and Buckets sum
// element-wise, and because every histogram shares the same fixed
// boundaries, the result is exactly the snapshot one process observing both
// streams would have produced. The derived percentiles (p50/p95/p99) are
// not state — MarshalJSON computes them from the buckets on the way out, so
// merging never has to average an average and a decode/encode round trip is
// byte-stable.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
}

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of the
// bucket containing it — a deterministic overestimate by at most the
// sqrt(2) bucket ratio. An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := uint64(float64(s.Count) * q)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(len(s.Buckets) - 1)
}

// quantileMs renders a quantile in milliseconds for the JSON form.
func (s HistogramSnapshot) quantileMs(q float64) float64 {
	return float64(s.Quantile(q)) / float64(time.Millisecond)
}

// histogramWire is the JSON schema of a snapshot: the mergeable state plus
// the derived percentiles.
type histogramWire struct {
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
	P50Ms   float64  `json:"p50_ms"`
	P95Ms   float64  `json:"p95_ms"`
	P99Ms   float64  `json:"p99_ms"`
}

// MarshalJSON emits the snapshot with its derived p50/p95/p99 (in
// milliseconds) appended. The percentiles are recomputed deterministically
// from the buckets, so marshal → unmarshal → marshal is byte-identical.
func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	buckets := s.Buckets
	if buckets == nil {
		buckets = []uint64{}
	}
	return json.Marshal(histogramWire{
		Count:   s.Count,
		SumNs:   s.SumNs,
		Buckets: buckets,
		P50Ms:   s.quantileMs(0.50),
		P95Ms:   s.quantileMs(0.95),
		P99Ms:   s.quantileMs(0.99),
	})
}

// UnmarshalJSON restores only the mergeable state; the percentile fields
// are derived and deliberately dropped (they re-derive on the next
// marshal).
func (s *HistogramSnapshot) UnmarshalJSON(data []byte) error {
	var w histogramWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = HistogramSnapshot{Count: w.Count, SumNs: w.SumNs, Buckets: w.Buckets}
	return nil
}

// sortedUnion merges two string sets into a sorted slice — the Primitives
// merge semantic, factored here so MergeSnapshots and callers share it.
func sortedUnion(a, b []string) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	set := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
