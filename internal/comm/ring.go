package comm

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// This file implements the ring algorithm the paper's communication library
// uses under the hood (§2.2, [38]): AllReduce as a reduce-scatter phase of
// n-1 neighbor steps followed by an all-gather phase of n-1 steps, each
// rank exchanging one chunk with its neighbors per step. The step-level
// data functions are exercised by tests to prove that the ring composition
// is exactly equivalent to the direct reductions the collectives use — the
// property that makes the bandwidth-optimal ring transparent to callers.

// ringChunk returns the [lo, hi) element range of chunk c when length
// elements are split into n nearly equal chunks (NCCL-style: remainder
// spreads over the leading chunks).
func ringChunk(length, n, c int) (lo, hi int) {
	base := length / n
	rem := length % n
	lo = c*base + min(c, rem)
	size := base
	if c < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RingReduceScatterStep performs step s (0 <= s < n-1) of the ring
// reduce-scatter phase in place over the per-rank working buffers: rank i
// sends its chunk (i - s mod n) — which already carries s+1 contributions —
// to rank i+1, which accumulates it. After n-1 steps, rank i holds the
// fully reduced chunk (i+1 mod n).
func RingReduceScatterStep(bufs [][]float32, s int) {
	n := len(bufs)
	if n < 2 {
		panic("comm: ring needs >= 2 ranks")
	}
	if s < 0 || s >= n-1 {
		panic(fmt.Sprintf("comm: reduce-scatter step %d out of [0,%d)", s, n-1))
	}
	length := len(bufs[0])
	// All sends of one step are logically concurrent; stage them first so
	// a rank's incoming chunk does not contaminate its outgoing one.
	type xfer struct {
		dst, lo, hi int
		data        []float32
	}
	var xs []xfer
	for i := 0; i < n; i++ {
		c := ((i-s)%n + n) % n
		lo, hi := ringChunk(length, n, c)
		staged := make([]float32, hi-lo)
		copy(staged, bufs[i][lo:hi])
		xs = append(xs, xfer{dst: (i + 1) % n, lo: lo, hi: hi, data: staged})
	}
	for _, x := range xs {
		dst := bufs[x.dst][x.lo:x.hi]
		for k, v := range x.data {
			dst[k] += v
		}
	}
}

// RingAllGatherStep performs step s (0 <= s < n-1) of the ring all-gather
// phase: rank i forwards its fully reduced chunk (i - s mod n, offset by
// one for the reduce-scatter ending position) to rank i+1.
func RingAllGatherStep(bufs [][]float32, s int) {
	n := len(bufs)
	if n < 2 {
		panic("comm: ring needs >= 2 ranks")
	}
	if s < 0 || s >= n-1 {
		panic(fmt.Sprintf("comm: all-gather step %d out of [0,%d)", s, n-1))
	}
	length := len(bufs[0])
	type xfer struct {
		dst, lo, hi int
		data        []float32
	}
	var xs []xfer
	for i := 0; i < n; i++ {
		c := ((i+1-s)%n + n) % n
		lo, hi := ringChunk(length, n, c)
		staged := make([]float32, hi-lo)
		copy(staged, bufs[i][lo:hi])
		xs = append(xs, xfer{dst: (i + 1) % n, lo: lo, hi: hi, data: staged})
	}
	for _, x := range xs {
		copy(bufs[x.dst][x.lo:x.hi], x.data)
	}
}

// RingAllReduceData runs the full 2(n-1)-step ring over per-rank buffers in
// place. It must produce exactly the rank-ordered sum in every buffer —
// the equivalence tests pin that down. (The production collectives use the
// direct reductions; this is the reference construction of [38].)
func RingAllReduceData(bufs [][]float32) {
	n := len(bufs)
	if n == 0 {
		panic("comm: no ranks")
	}
	if n == 1 {
		return
	}
	length := len(bufs[0])
	for _, b := range bufs {
		if len(b) != length {
			panic("comm: ring buffer length mismatch")
		}
	}
	for s := 0; s < n-1; s++ {
		RingReduceScatterStep(bufs, s)
	}
	for s := 0; s < n-1; s++ {
		RingAllGatherStep(bufs, s)
	}
}

// SendRecv enqueues a point-to-point transfer from rank src to rank dst
// (ncclSend/ncclRecv): both ranks' communication streams participate, the
// duration follows the link model for a unidirectional message, and apply
// runs at completion (the data copy). The returned signal fires when done.
func (cm *Communicator) SendRecv(name string, src, dst int, bytes int64, apply func()) *gpu.Signal {
	if src == dst || src < 0 || dst < 0 || src >= cm.N() || dst >= cm.N() {
		panic(fmt.Sprintf("comm: SendRecv %d->%d invalid for %d ranks", src, dst, cm.N()))
	}
	link := cm.Cluster.Plat.Link
	base := link.BaseLatency + link.PerHopLatency +
		sim.FromSeconds(float64(bytes)/link.EffectiveBW(float64(bytes)))
	k := cm.issue(name, 2, base, apply)
	cm.Streams[src].Join(&k.rv)
	cm.Streams[dst].Join(&k.rv)
	return &k.done
}

// CopyP2P is the functional payload of a SendRecv over matrices.
func CopyP2P(dst, src *tensor.Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("comm: p2p shape mismatch")
	}
	copy(dst.Data, src.Data)
}
