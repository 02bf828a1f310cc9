package gemm

import (
	"fmt"
	"strconv"
)

// Partition is a wave-group partition: element j is |G_j|, the number of
// waves in the j-th group (§3.4). Group sizes are positive and sum to the
// total wave count T. The communication of group j is signaled when its
// last wave completes.
type Partition []int

// Groups reports the number of wave groups P.
func (p Partition) Groups() int { return len(p) }

// TotalWaves reports the sum of group sizes.
func (p Partition) TotalWaves() int {
	t := 0
	for _, g := range p {
		t += g
	}
	return t
}

// Validate checks that p is a legal partition of T waves.
func (p Partition) Validate(t int) error {
	if len(p) == 0 {
		return fmt.Errorf("gemm: empty partition")
	}
	sum := 0
	for j, g := range p {
		if g <= 0 {
			return fmt.Errorf("gemm: group %d has non-positive size %d", j, g)
		}
		sum += g
	}
	if sum != t {
		return fmt.Errorf("gemm: partition %v sums to %d waves, want %d", p, sum, t)
	}
	return nil
}

// String renders like the paper, e.g. "(1, 2, 2)". The tuner orders its
// candidates by this string and the engine keys compiled plans by it.
func (p Partition) String() string {
	b := make([]byte, 0, 2+4*len(p))
	b = append(b, '(')
	for i, g := range p {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, int64(g), 10)
	}
	return string(append(b, ')'))
}

// SingleGroup returns the degenerate partition with all T waves in one
// group — equivalent to no overlap within the kernel (communication starts
// only when everything is done).
func SingleGroup(t int) Partition { return Partition{t} }

// PerWave returns the baseline partition with one wave per group — the most
// fine-grained overlap (§4.1.1's baseline).
func PerWave(t int) Partition {
	p := make(Partition, t)
	for i := range p {
		p[i] = 1
	}
	return p
}

// EqualSized returns the partition with groups of gs waves each (the last
// group absorbs the remainder), the "Egs=n" strategy of Fig. 14.
func EqualSized(t, gs int) Partition {
	if gs <= 0 {
		panic(fmt.Sprintf("gemm: non-positive group size %d", gs))
	}
	if gs >= t {
		return SingleGroup(t)
	}
	var p Partition
	left := t
	for left > 0 {
		g := gs
		if g > left {
			g = left
		}
		p = append(p, g)
		left -= g
	}
	// Fold a trailing runt smaller than half a group into its
	// predecessor so "equal sized" stays honest.
	if len(p) >= 2 && p[len(p)-1]*2 < gs {
		p[len(p)-2] += p[len(p)-1]
		p = p[:len(p)-1]
	}
	return p
}

// GroupBound holds a wave group's extent in waves and tile positions.
type GroupBound struct {
	WaveLo, WaveHi int // waves [WaveLo, WaveHi)
	PosLo, PosHi   int // execution positions [PosLo, PosHi)
}

// Tiles reports the group's tile count.
func (b GroupBound) Tiles() int { return b.PosHi - b.PosLo }

// Bounds resolves the partition into tile-position ranges for a plan
// executing with activeSMs concurrent tiles. It panics if the partition
// does not match the plan's wave count — mismatches are tuner bugs.
func (p Partition) Bounds(plan *Plan, activeSMs int) []GroupBound {
	t := plan.Waves(activeSMs)
	if err := p.Validate(t); err != nil {
		panic(err)
	}
	out := make([]GroupBound, len(p))
	w := 0
	for j, g := range p {
		b := GroupBound{WaveLo: w, WaveHi: w + g}
		b.PosLo = b.WaveLo * activeSMs
		b.PosHi = b.WaveHi * activeSMs
		if b.PosHi > plan.Tiles {
			b.PosHi = plan.Tiles
		}
		out[j] = b
		w += g
	}
	return out
}

// BoundsClamped resolves the partition like Bounds but tolerates a wave
// width that does not factor the plan exactly: thresholds are cumulative
// group sizes times waveSize, clamped to the tile count, and groups that
// end up empty are dropped. This models a *misconfigured* wave size
// (Fig. 14's "mw" bar): the partition was tuned for the true wave width,
// but the counting thresholds are computed with a wrong one, so groups
// swallow more tiles than intended and trailing groups collapse.
func (p Partition) BoundsClamped(plan *Plan, waveSize int) []GroupBound {
	if waveSize <= 0 {
		panic(fmt.Sprintf("gemm: non-positive wave size %d", waveSize))
	}
	if p.TotalWaves()*waveSize < plan.Tiles {
		panic(fmt.Sprintf("gemm: partition %v at wave size %d covers %d < %d tiles",
			p, waveSize, p.TotalWaves()*waveSize, plan.Tiles))
	}
	var out []GroupBound
	pos, w := 0, 0
	for _, g := range p {
		if g <= 0 {
			panic(fmt.Sprintf("gemm: non-positive group size %d", g))
		}
		b := GroupBound{WaveLo: w, WaveHi: w + g, PosLo: pos, PosHi: (w + g) * waveSize}
		if b.PosHi > plan.Tiles {
			b.PosHi = plan.Tiles
		}
		w += g
		if b.PosHi > b.PosLo {
			out = append(out, b)
			pos = b.PosHi
		}
	}
	return out
}

// Clone returns an independent copy.
func (p Partition) Clone() Partition {
	c := make(Partition, len(p))
	copy(c, p)
	return c
}
