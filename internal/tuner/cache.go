package tuner

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/gemm"
)

// DefaultShapeCacheCapacity bounds a tuner's shape cache when the caller does
// not choose a capacity. The paper's dynamic-shape store (§4.2.2) holds a few
// dozen representative sizes; 256 leaves ample headroom for a long-lived
// service tuning misses on the fly without letting an adversarial shape
// stream grow the cache without bound.
const DefaultShapeCacheCapacity = 256

// shapeCache is the concurrency-safe nearest-neighbor store behind
// Tuner.Lookup: tuned (shape, imbalance) -> partition entries, matched in
// (log2 M·N, log2 K) space. Reads (the hot serving path) take only the read
// lock and scan precomputed log coordinates; writes maintain an LRU order so
// the capacity bound evicts the least-recently-matched entry first. A
// successful match bumps recency with a short exclusive section after the
// scan, so concurrent lookups never serialize on the scan itself.
type shapeCache struct {
	mu       sync.RWMutex
	capacity int
	order    *list.List // front = most recently used; values are *shapeEntry
	byKey    map[shapeKey]*list.Element
}

// shapeKey identifies one tuned entry: the same shape tuned under different
// imbalance factors yields different optimal partitions, so both dimensions
// key the cache.
type shapeKey struct {
	shape gemm.Shape
	imb   float64 // normalized: always >= 1
}

type shapeEntry struct {
	key      shapeKey
	lmn, lk  float64 // precomputed log2(M*N), log2(K)
	part     gemm.Partition
	partWave int // part.TotalWaves(), precomputed for the transfer check
	// encoded is the entry's Tuner.Encode rendering, or nil. Entries are
	// immutable once stored, so the bytes leave with their entry: an
	// eviction or a re-tune can never leave them stale.
	encoded []byte
}

// normImbalance maps the "balanced" encodings (0, or anything below 1) to 1,
// the same normalization NewPredictor applies.
func normImbalance(f float64) float64 {
	if f < 1 {
		return 1
	}
	return f
}

func newShapeCache(capacity int) *shapeCache {
	if capacity < 1 {
		capacity = 1
	}
	return &shapeCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[shapeKey]*list.Element, capacity),
	}
}

func logCoords(shape gemm.Shape) (lmn, lk float64) {
	return math.Log2(float64(shape.M) * float64(shape.N)), math.Log2(float64(shape.K))
}

// put inserts or replaces the tuned partition under k with its encoded
// bytes, bumping it to the front and evicting from the back past capacity.
// The partition is cloned so the cache never aliases caller-owned slices.
func (c *shapeCache) put(k shapeKey, part gemm.Partition, encoded []byte) {
	e := &shapeEntry{key: k, part: part.Clone(), partWave: part.TotalWaves(), encoded: encoded}
	e.lmn, e.lk = logCoords(k.shape)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*shapeEntry).key)
	}
}

// encoded returns the bytes of the entry stored under exactly k, under the
// read lock and without allocating.
func (c *shapeCache) encoded(k shapeKey) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if el, ok := c.byKey[k]; ok {
		return el.Value.(*shapeEntry).encoded
	}
	return nil
}

// snapshot returns the cached entries in least-recently-used-first order, so
// replaying them through put reproduces both contents and recency. Partitions
// are cloned: the snapshot must not alias live cache state.
func (c *shapeCache) snapshot() []CacheEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]CacheEntry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*shapeEntry)
		out = append(out, CacheEntry{
			Shape:     e.key.shape,
			Imbalance: e.key.imb,
			Partition: e.part.Clone(),
		})
	}
	return out
}

// anyImbalance disables the imbalance filter in nearest (legacy Lookup
// matches across all tuned entries).
const anyImbalance = -1

// nearest returns the cached entry closest to shape in log space, scanning
// under the read lock only. imbalance >= 1 restricts the scan to entries
// tuned at that factor; anyImbalance matches all. ok is false when no entry
// qualifies.
func (c *shapeCache) nearest(shape gemm.Shape, imbalance float64) (shapeEntry, bool) {
	qx, qy := logCoords(shape)
	c.mu.RLock()
	bestDist := math.Inf(1)
	var best *shapeEntry
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*shapeEntry)
		if imbalance != anyImbalance && e.key.imb != imbalance {
			continue
		}
		dx, dy := e.lmn-qx, e.lk-qy
		if d := dx*dx + dy*dy; d < bestDist {
			bestDist = d
			best = e
		}
	}
	c.mu.RUnlock()
	if best == nil {
		return shapeEntry{}, false
	}
	return *best, true
}

// touch marks an entry as recently used. It tolerates the entry having been
// evicted between a lookup's read section and this call.
func (c *shapeCache) touch(k shapeKey) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.order.MoveToFront(el)
	}
	c.mu.Unlock()
}

func (c *shapeCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.order.Len()
}

// encodedCount counts the entries that carry encoded bytes.
func (c *shapeCache) encodedCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*shapeEntry).encoded != nil {
			n++
		}
	}
	return n
}
