// Package core implements FlashOverlap itself: the counting-table signaling
// mechanism, the overlapped GEMM+collective runner built on the simulated
// device/communication substrates, and the theoretical overlap bound used
// in §6.4. The runner is organized exactly like the paper's Fig. 5: one
// untouched GEMM kernel on a compute stream whose epilogue scatters tiles
// through a reorder mapping and bumps a counting table; a signaling kernel
// per wave group on the communication stream that polls the table and
// releases a plain collective-library call over the group's contiguous
// buffer range; and a post-communication reorder fused into the next
// element-wise kernel.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/gemm"
)

// CountingTable tracks per-group tile completion (§3.2.4): entry j counts
// finished tiles of wave group G_j; when it reaches |G_j| (in tiles), the
// group's completion callback runs — in the real system this is the moment
// the signaling kernel observes the threshold and releases the
// communication.
//
// The table keeps per-group state only. Every call finds its first group
// by binary search over the bounds. A range that covers a whole group —
// all the wave-granularity runner ever adds — then bumps the group's
// count once. Single tiles and partial ranges mark a per-tile bitmap,
// allocated on the first such call, so a table the runner drives never
// pays for its tiles.
type CountingTable struct {
	bounds   []gemm.GroupBound
	counts   []int
	done     []bool
	seen     []bool // per-tile marks of Add and partial ranges; nil until used
	complete func(g int)
}

// NewCountingTable builds a table over contiguous group bounds; complete is
// invoked exactly once per group, in the call that fills it.
func NewCountingTable(bounds []gemm.GroupBound, complete func(g int)) *CountingTable {
	ct := new(CountingTable)
	ct.reset(bounds, complete)
	return ct
}

// reset makes ct an empty table over bounds, as NewCountingTable builds it.
// The per-group counters keep their memory; the per-tile marks, which the
// runner never uses, are dropped.
func (ct *CountingTable) reset(bounds []gemm.GroupBound, complete func(g int)) {
	if len(bounds) == 0 {
		panic("core: counting table needs at least one group")
	}
	covered := 0
	for g, b := range bounds {
		if b.PosLo != covered || b.PosHi < b.PosLo {
			panic(fmt.Sprintf("core: group %d bounds [%d,%d) not contiguous after %d", g, b.PosLo, b.PosHi, covered))
		}
		covered = b.PosHi
	}
	counts := slices.Grow(ct.counts[:0], len(bounds))[:len(bounds)]
	done := slices.Grow(ct.done[:0], len(bounds))[:len(bounds)]
	clear(counts)
	clear(done)
	*ct = CountingTable{bounds: bounds, counts: counts, done: done, complete: complete}
}

// Groups reports the number of wave groups P.
func (ct *CountingTable) Groups() int { return len(ct.bounds) }

// Count reports the current count of group g.
func (ct *CountingTable) Count(g int) int { return ct.counts[g] }

// Complete reports whether group g has reached its threshold.
func (ct *CountingTable) Complete(g int) bool { return ct.done[g] }

// Add records completion of the tile at execution position pos — the
// atomicAdd the GEMM epilogue performs. Double counting a tile panics: it
// would release communication before the data is ready.
func (ct *CountingTable) Add(pos int) {
	if total := ct.bounds[len(ct.bounds)-1].PosHi; pos < 0 || pos >= total {
		panic(fmt.Sprintf("core: tile position %d out of %d", pos, total))
	}
	ct.AddRange(pos, pos+1)
}

// AddRange records completion of positions [lo, hi) — used when a whole
// wave group retires at once in the wave-granularity timing model. The
// groups the range fills fire in position order. Counting any position
// twice panics, as does a range outside the table.
func (ct *CountingTable) AddRange(lo, hi int) {
	if lo >= hi {
		return
	}
	if total := ct.bounds[len(ct.bounds)-1].PosHi; lo < 0 || hi > total {
		panic(fmt.Sprintf("core: tile positions [%d,%d) out of %d", lo, hi, total))
	}
	g := sort.Search(len(ct.bounds), func(i int) bool { return ct.bounds[i].PosHi > lo })
	for ; g < len(ct.bounds) && ct.bounds[g].PosLo < hi; g++ {
		b := ct.bounds[g]
		ct.count(g, max(lo, b.PosLo), min(hi, b.PosHi))
	}
}

// count records positions [lo, hi) of group g, which contains them.
func (ct *CountingTable) count(g, lo, hi int) {
	b := ct.bounds[g]
	switch {
	case lo == b.PosLo && hi == b.PosHi:
		if ct.counts[g] != 0 {
			panic(fmt.Sprintf("core: group %d counted twice", g))
		}
	case ct.done[g]:
		panic(fmt.Sprintf("core: tile position %d counted twice", lo))
	default:
		if ct.seen == nil {
			ct.seen = make([]bool, ct.bounds[len(ct.bounds)-1].PosHi)
		}
		for pos := lo; pos < hi; pos++ {
			if ct.seen[pos] {
				panic(fmt.Sprintf("core: tile position %d counted twice", pos))
			}
			ct.seen[pos] = true
		}
	}
	ct.counts[g] += hi - lo
	if ct.counts[g] == b.Tiles() {
		ct.done[g] = true
		if ct.complete != nil {
			ct.complete(g)
		}
	}
}
