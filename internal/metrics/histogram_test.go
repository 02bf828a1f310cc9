package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestBucketBoundsRecurrence(t *testing.T) {
	if bucketBounds[0] != 1000 || bucketBounds[1] != 1414 {
		t.Fatalf("base bounds = %d, %d; want 1000, 1414", bucketBounds[0], bucketBounds[1])
	}
	for i := 2; i < len(bucketBounds); i++ {
		if bucketBounds[i] != 2*bucketBounds[i-2] {
			t.Fatalf("bounds[%d] = %d; want 2*bounds[%d] = %d", i, bucketBounds[i], i-2, 2*bucketBounds[i-2])
		}
		if bucketBounds[i] <= bucketBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d <= %d", i, bucketBounds[i], bucketBounds[i-1])
		}
	}
	// The table must cover sub-microsecond to tens of minutes.
	if top := time.Duration(bucketBounds[len(bucketBounds)-1]); top < 30*time.Minute {
		t.Fatalf("top finite bound %v; want >= 30m", top)
	}
}

func TestBucketIndexMatchesLinearScan(t *testing.T) {
	linear := func(ns uint64) int {
		for i, b := range bucketBounds {
			if ns <= b {
				return i
			}
		}
		return NumBuckets - 1
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ns := uint64(rng.Int63n(int64(bucketBounds[len(bucketBounds)-1]) * 2))
		if got, want := bucketIndex(ns), linear(ns); got != want {
			t.Fatalf("bucketIndex(%d) = %d; want %d", ns, got, want)
		}
	}
	for _, b := range bucketBounds {
		// Bounds are inclusive: the boundary value lands in its own bucket,
		// one past it lands in the next.
		if bucketIndex(b) != bucketIndex(b-1) && bucketIndex(b-1) != bucketIndex(b)-1 {
			t.Fatalf("boundary %d splits wrong: idx(b-1)=%d idx(b)=%d", b, bucketIndex(b-1), bucketIndex(b))
		}
		if bucketIndex(b+1) != bucketIndex(b)+1 {
			t.Fatalf("boundary %d: idx(b+1)=%d want %d", b, bucketIndex(b+1), bucketIndex(b)+1)
		}
	}
}

func TestObserveAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call; the warm fast path requires 0", allocs)
	}
}

// TestMergeEquivalence is the exactness contract of the fixed boundaries:
// shard-merged histograms equal the single-process histogram of the same
// observations, so a router's merged percentiles are exact, not an
// approximation built from per-replica approximations.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var single Histogram
	shards := [3]*Histogram{{}, {}, {}}
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Minute)))
		single.Observe(d)
		shards[rng.Intn(len(shards))].Observe(d)
	}
	merged := shards[0].Snapshot()
	for _, h := range shards[1:] {
		merged = MergeSnapshots(merged, h.Snapshot())
	}
	want := single.Snapshot()
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged shard snapshots differ from the single-process snapshot:\nmerged: %+v\nsingle: %+v", merged, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		if merged.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q=%v: merged %v != single %v", q, merged.Quantile(q), want.Quantile(q))
		}
	}
	mj, _ := json.Marshal(merged)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(mj, wj) {
		t.Fatalf("merged JSON differs from single-process JSON:\n%s\n%s", mj, wj)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, time.Microsecond, 80 * time.Microsecond, 3 * time.Millisecond, 2 * time.Second, time.Hour} {
		h.Observe(d)
	}
	for _, s := range []HistogramSnapshot{{}, h.Snapshot()} {
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back HistogramSnapshot
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not byte-stable:\nfirst:  %s\nsecond: %s", first, second)
		}
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow: p50 in the fast bucket, p95+ in the
	// slow one.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	fast := BucketBound(bucketIndex(uint64(10 * time.Microsecond)))
	slow := BucketBound(bucketIndex(uint64(100 * time.Millisecond)))
	if got := s.Quantile(0.50); got != fast {
		t.Fatalf("p50 = %v; want fast bucket bound %v", got, fast)
	}
	for _, q := range []float64{0.95, 0.99} {
		if got := s.Quantile(q); got != slow {
			t.Fatalf("q%v = %v; want slow bucket bound %v", q, got, slow)
		}
	}
	if got := (HistogramSnapshot{}).Quantile(0.99); got != 0 {
		t.Fatalf("empty snapshot quantile = %v; want 0", got)
	}
	// The overflow bucket still answers with a finite sentinel.
	var over Histogram
	over.Observe(2 * time.Hour)
	if got := over.Snapshot().Quantile(0.99); got != BucketBound(NumBuckets-1) {
		t.Fatalf("overflow quantile = %v; want sentinel %v", got, BucketBound(NumBuckets-1))
	}
}

func TestSnapshotTrimsTrailingZeros(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Microsecond)
	s := h.Snapshot()
	if len(s.Buckets) != bucketIndex(uint64(5*time.Microsecond))+1 {
		t.Fatalf("snapshot has %d buckets; want trim to %d", len(s.Buckets), bucketIndex(uint64(5*time.Microsecond))+1)
	}
	var empty Histogram
	if empty.Snapshot().Buckets != nil {
		t.Fatal("empty histogram snapshot should carry no buckets")
	}
}
