package engine

import (
	"container/list"
	"sync"
)

// planCache is a mutex-guarded LRU over compiled plans that collapses
// concurrent misses on one key: the first caller to miss inserts an
// in-flight entry and compiles outside the lock, and later callers wait on
// that entry instead of compiling again. Plans are immutable, so a cached
// plan may be handed to any number of concurrent executors; the lock only
// covers the bookkeeping.
type planCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[Key]*list.Element
}

// cacheEntry is one key's plan. done closes when the owner's compile
// settles; plan stays nil after a failed compile, whose entry has left the
// cache by then.
type cacheEntry struct {
	key  Key
	plan *Plan
	done chan struct{}
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[Key]*list.Element, capacity),
	}
}

// acquire returns k's entry, settled or in flight. On a miss it inserts a
// new in-flight entry and reports owner: the caller must compile and
// settle it.
func (c *planCache) acquire(k Key) (ent *cacheEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry), false
	}
	ent = &cacheEntry{key: k, done: make(chan struct{})}
	c.byKey[k] = c.order.PushFront(ent)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
	return ent, true
}

// settle publishes the owner's compile to the entry's waiters. A failed
// compile (nil p) removes the entry, so the next call retries.
func (c *planCache) settle(ent *cacheEntry, p *Plan) {
	c.mu.Lock()
	ent.plan = p
	if el, ok := c.byKey[ent.key]; ok && p == nil && el.Value == ent {
		c.order.Remove(el)
		delete(c.byKey, ent.key)
	}
	c.mu.Unlock()
	close(ent.done)
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *planCache) cap() int { return c.capacity }
