package tuner

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gemm"
	"repro/internal/hw"
)

// Round trip: CacheSnapshot -> SeedCache must reproduce contents, answers,
// and LRU order on a fresh tuner.
func TestCacheSnapshotSeedRoundTrip(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 2, hw.AllReduce)
	tn.CandidateLimit = 64
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
	}
	for _, s := range shapes {
		if _, err := tn.Tune(context.Background(), s, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := tn.CacheSnapshot()
	if len(snap) != len(shapes) {
		t.Fatalf("snapshot has %d entries, tuned %d shapes", len(snap), len(shapes))
	}
	// Oldest-first: the first tuned shape leads.
	if snap[0].Shape != shapes[0] || snap[len(snap)-1].Shape != shapes[len(shapes)-1] {
		t.Fatalf("snapshot order %v does not follow tune order %v", snap, shapes)
	}

	restored := NewTunerWithCurve(tn.Plat, tn.NGPUs, tn.Prim, tn.Curve)
	restored.CandidateLimit = tn.CandidateLimit
	if err := restored.SeedCache(snap); err != nil {
		t.Fatal(err)
	}
	if restored.CacheSize() != tn.CacheSize() {
		t.Fatalf("restored cache holds %d entries, want %d", restored.CacheSize(), tn.CacheSize())
	}
	for _, s := range shapes {
		want, ok := tn.LookupAt(s, 0)
		if !ok {
			t.Fatalf("original tuner lost shape %v", s)
		}
		got, ok := restored.LookupAt(s, 0)
		if !ok {
			t.Fatalf("restored tuner cannot answer shape %v", s)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %v: restored partition %v, want %v", s, got, want)
		}
	}

	// LRU order survived: seeding a bounded tuner to capacity must evict
	// the entry that was least recent in the source, not an arbitrary one.
	bounded := NewTunerWithCurve(tn.Plat, tn.NGPUs, tn.Prim, tn.Curve)
	bounded.CacheCapacity = len(shapes) - 1
	if err := bounded.SeedCache(snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := bounded.LookupAt(shapes[0], 0); ok {
		// shapes[0] was the least recently tuned; a capacity-1-short seed
		// must shed exactly it. (LookupAt may still nearest-match another
		// entry whose wave count transfers, so check the cache directly.)
		if got := bounded.CacheSnapshot(); len(got) == len(shapes)-1 {
			for _, e := range got {
				if e.Shape == shapes[0] {
					t.Fatalf("seeding past capacity kept the LRU entry %v", shapes[0])
				}
			}
		}
	}
}

// A snapshot whose partition cannot fit its shape's wave count must be
// rejected atomically: no entry of the batch lands.
func TestSeedCacheRejectsCorruptEntries(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 2, hw.AllReduce)
	good := CacheEntry{Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Imbalance: 1, Partition: gemm.Partition{1}}
	if err := tn.SeedCache([]CacheEntry{good}); err == nil {
		// The single-group {1} partition only fits a 1-wave plan; this
		// shape has many waves, so the seed must fail.
		t.Fatal("corrupt partition accepted")
	}
	if tn.CacheSize() != 0 {
		t.Fatalf("rejected seed still landed %d entries", tn.CacheSize())
	}
}

// An entry's Encode bytes live and die with the entry: a capacity eviction
// takes them along, and a re-tune replaces them instead of leaving them
// stale.
func TestEncodedBytesLeaveWithTheirEntry(t *testing.T) {
	tn := NewTuner(hw.RTX4090PCIe(), 2, hw.AllReduce)
	tn.CandidateLimit = 64
	tn.CacheCapacity = 2
	renders := 0
	tn.Encode = func(e CacheEntry) []byte {
		renders++
		return []byte(fmt.Sprintf("%v@%g=%v #%d", e.Shape, e.Imbalance, e.Partition, renders))
	}
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
	}
	for _, s := range shapes {
		if _, err := tn.Tune(context.Background(), s, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2, three tunes: the first shape was evicted, bytes and all.
	if buf, ok := tn.Encoded(shapes[0], 0); ok {
		t.Fatalf("evicted shape %v still holds bytes %q", shapes[0], buf)
	}
	if n := tn.EncodedSize(); n != 2 {
		t.Fatalf("%d entries hold bytes, want 2", n)
	}
	before, ok := tn.Encoded(shapes[2], 1) // imbalance 1 keys like 0
	if !ok {
		t.Fatalf("cached shape %v holds no bytes", shapes[2])
	}
	// Re-tuning a cached shape replaces its entry, and its bytes with it.
	if _, err := tn.Tune(context.Background(), shapes[2], 0); err != nil {
		t.Fatal(err)
	}
	after, ok := tn.Encoded(shapes[2], 0)
	if !ok || string(after) == string(before) {
		t.Fatalf("re-tuned shape %v holds %q, want a fresh rendering of %q", shapes[2], after, before)
	}
	if n := tn.EncodedSize(); n != 2 || renders != 4 {
		t.Fatalf("%d entries hold bytes after %d renders, want 2 after 4", n, renders)
	}
}
