// Package comm is the repository's NCCL analog: a collective communication
// library over simulated devices, reached exclusively through high-level API
// calls — which is precisely the property ("communication agnosticism")
// FlashOverlap exploits. It provides AllReduce, ReduceScatter, AllGather,
// All-to-All(V) and point-to-point sends, with ring-algorithm cost modeling,
// per-message effective bandwidth, and SM occupancy on every participating
// device while a collective is in flight.
//
// Each collective has two halves, mirroring the real library:
//
//   - timing: a rendezvous across the per-rank communication streams whose
//     duration comes from hw.LinkSpec.CollectiveTime (+ deterministic
//     measurement jitter);
//   - function: the actual float32 data movement/reduction across the
//     per-rank buffers, executed once at the collective's completion time.
//
// Reductions always run in ascending rank order so results are bit-stable
// regardless of which rank arrived last — that determinism is what lets the
// correctness tests demand exact equality with sequential references.
package comm

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Communicator binds the devices of a cluster into one communication group
// with a dedicated stream per rank (the paper runs communication on its own
// CUDA stream, §5).
type Communicator struct {
	Cluster *gpu.Cluster
	Streams []*gpu.Stream

	jitter stats.Jitter
	seq    uint64
	// calls[i] is the state of the collective or send numbered i+1; the
	// slots outlive Reset, so a reused communicator issues calls without
	// allocating.
	calls []*call
}

// New creates a communicator spanning every device of the cluster.
func New(c *gpu.Cluster) *Communicator {
	cm := new(Communicator)
	cm.Reset(c)
	return cm
}

// Reset makes cm a communicator over c that has issued nothing, as New
// builds it, reusing its streams and call slots.
func (cm *Communicator) Reset(c *gpu.Cluster) {
	for _, k := range cm.calls[:cm.seq] {
		k.apply = nil
	}
	cm.Cluster = c
	cm.jitter = stats.NewJitter(c.Plat.JitterSeed ^ 0xC0111EC7)
	cm.seq = 0
	streams := cm.Streams[:cap(cm.Streams)]
	for len(streams) < c.N() {
		streams = append(streams, new(gpu.Stream))
	}
	cm.Streams = streams[:c.N()]
	for i, st := range cm.Streams {
		st.Reset(c.Devices[i], "comm")
	}
}

// call is one issued collective or send: the rendezvous its ranks join
// and the signal that fires when it completes. Its callbacks are bound
// once, when the slot is made.
type call struct {
	rv       gpu.Rendezvous
	done     gpu.Signal
	dur      sim.Time
	apply    func()
	name     string
	doneName string

	duration func(sim.Time) sim.Time
	finish   func(sim.Time)
}

// issue readies the next call slot for a call of n ranks lasting base
// before jitter, and returns it.
func (cm *Communicator) issue(name string, n int, base sim.Time, apply func()) *call {
	cm.seq++
	if int(cm.seq) > len(cm.calls) {
		k := new(call)
		k.duration = func(sim.Time) sim.Time { return k.dur }
		k.finish = func(sim.Time) {
			if k.apply != nil {
				k.apply()
			}
			k.done.Fire()
		}
		cm.calls = append(cm.calls, k)
	}
	k := cm.calls[cm.seq-1]
	if k.name != name {
		k.name, k.doneName = name, name+":done"
	}
	// Deterministic per-call noise models protocol and scheduling variance
	// the tuner's predictor cannot see. It is keyed by the call's number,
	// so it is the same whenever it is drawn.
	k.dur = sim.Time(float64(base) * cm.jitter.Factor(cm.Cluster.Plat.JitterAmplitude, cm.seq))
	k.apply = apply
	k.rv.Reset(name, n, cm.Cluster.Plat.CommSMs, k.duration)
	k.rv.OnComplete = k.finish
	k.done.Reset(cm.Cluster.Sim, k.doneName)
	return k
}

// N reports the number of ranks.
func (cm *Communicator) N() int { return len(cm.Streams) }

// maxBytes returns the largest per-rank payload; collective completion is
// bounded by the most loaded rank (§4.2.2 extends the predictor the same
// way for imbalanced All-to-All).
func maxBytes(perRank []int64) int64 {
	var m int64
	for _, b := range perRank {
		if b > m {
			m = b
		}
	}
	return m
}

// Collective enqueues one collective on every rank's communication stream.
// perRankBytes[i] is rank i's payload in (half-precision) bytes; apply, if
// non-nil, performs the functional data movement at completion time. The
// returned signal fires when the collective completes on all ranks.
//
// The caller is responsible for ordering: anything that must precede the
// collective on rank i (e.g. a WaitSignal on a counting-table signal) must
// be enqueued on Stream(i) beforehand.
func (cm *Communicator) Collective(name string, prim hw.Primitive, perRankBytes []int64, apply func()) *gpu.Signal {
	if len(perRankBytes) != cm.N() {
		panic(fmt.Sprintf("comm: %d payload sizes for %d ranks", len(perRankBytes), cm.N()))
	}
	n := cm.N()
	base := cm.Cluster.Plat.Link.CollectiveTime(prim, float64(maxBytes(perRankBytes)), n)
	k := cm.issue(name, n, base, apply)
	for _, st := range cm.Streams {
		st.Join(&k.rv)
	}
	return &k.done
}

// Stream returns rank i's communication stream for enqueueing gates ahead
// of a collective.
func (cm *Communicator) Stream(i int) *gpu.Stream { return cm.Streams[i] }

// uniformBytes builds a per-rank payload slice with the same size per rank.
func (cm *Communicator) uniformBytes(b int64) []int64 {
	out := make([]int64, cm.N())
	for i := range out {
		out[i] = b
	}
	return out
}

// AllReduce enqueues an AllReduce over the per-rank buffers: every rank's
// dst becomes the elementwise rank-ordered sum of all srcs. src and dst of
// a rank may alias.
func (cm *Communicator) AllReduce(name string, srcs, dsts []*tensor.Matrix) *gpu.Signal {
	checkRanks("AllReduce", cm.N(), len(srcs), len(dsts))
	bytes := srcs[0].Bytes()
	return cm.Collective(name, hw.AllReduce, cm.uniformBytes(bytes), func() {
		AllReduceData(srcs, dsts)
	})
}

// ReduceScatter enqueues a ReduceScatter: the rank-ordered sum of srcs is
// split into N() equal row blocks, block i landing in dsts[i].
func (cm *Communicator) ReduceScatter(name string, srcs, dsts []*tensor.Matrix) *gpu.Signal {
	checkRanks("ReduceScatter", cm.N(), len(srcs), len(dsts))
	bytes := srcs[0].Bytes()
	return cm.Collective(name, hw.ReduceScatter, cm.uniformBytes(bytes), func() {
		ReduceScatterData(srcs, dsts)
	})
}

// AllGather enqueues an AllGather: every rank's dst is the row-wise
// concatenation of all srcs in rank order.
func (cm *Communicator) AllGather(name string, srcs, dsts []*tensor.Matrix) *gpu.Signal {
	checkRanks("AllGather", cm.N(), len(srcs), len(dsts))
	bytes := srcs[0].Bytes() * int64(cm.N())
	return cm.Collective(name, hw.AllGather, cm.uniformBytes(bytes), func() {
		AllGatherData(srcs, dsts)
	})
}

// AllToAllV enqueues a variable-count All-to-All over flat element buffers.
// See AllToAllVData for the exchange semantics. Per-rank payloads (and
// therefore the modeled completion time) follow each rank's total send
// volume, capturing the expert-imbalance effect in GEMM+A2A.
func (cm *Communicator) AllToAllV(name string, srcs, dsts [][]float32, sendCounts, sendOffs, recvOffs [][]int) *gpu.Signal {
	n := cm.N()
	checkRanks("AllToAllV", n, len(srcs), len(dsts))
	perRank := make([]int64, n)
	for i := 0; i < n; i++ {
		var elems int64
		for j := 0; j < n; j++ {
			elems += int64(sendCounts[i][j])
		}
		perRank[i] = elems * 2 // half precision
	}
	return cm.Collective(name, hw.AllToAll, perRank, func() {
		AllToAllVData(srcs, dsts, sendCounts, sendOffs, recvOffs)
	})
}

func checkRanks(op string, n int, lens ...int) {
	for _, l := range lens {
		if l != n {
			panic(fmt.Sprintf("comm: %s buffer count %d != rank count %d", op, l, n))
		}
	}
}

// --- Functional data movement -------------------------------------------

// AllReduceData sums srcs elementwise in ascending rank order and writes the
// result to every dst. Buffers may alias pairwise (src[i] == dst[i]).
func AllReduceData(srcs, dsts []*tensor.Matrix) {
	n := len(srcs)
	if n == 0 || len(dsts) != n {
		panic("comm: AllReduceData needs matching src/dst sets")
	}
	rows, cols := srcs[0].Rows, srcs[0].Cols
	sum := tensor.New(rows, cols)
	for _, s := range srcs {
		if s.Rows != rows || s.Cols != cols {
			panic("comm: AllReduceData shape mismatch across ranks")
		}
		sum.AddInPlace(s)
	}
	for _, d := range dsts {
		if d.Rows != rows || d.Cols != cols {
			panic("comm: AllReduceData dst shape mismatch")
		}
		copy(d.Data, sum.Data)
	}
}

// ReduceScatterData sums srcs in rank order, splits the sum into len(dsts)
// equal row blocks, and writes block i to dsts[i]. Row count must divide
// evenly — NCCL has the same requirement.
func ReduceScatterData(srcs, dsts []*tensor.Matrix) {
	n := len(srcs)
	if n == 0 || len(dsts) != n {
		panic("comm: ReduceScatterData needs matching src/dst sets")
	}
	rows, cols := srcs[0].Rows, srcs[0].Cols
	if rows%n != 0 {
		panic(fmt.Sprintf("comm: ReduceScatterData rows %d not divisible by %d ranks", rows, n))
	}
	sum := tensor.New(rows, cols)
	for _, s := range srcs {
		if s.Rows != rows || s.Cols != cols {
			panic("comm: ReduceScatterData shape mismatch across ranks")
		}
		sum.AddInPlace(s)
	}
	block := rows / n
	for i, d := range dsts {
		if d.Rows != block || d.Cols != cols {
			panic(fmt.Sprintf("comm: ReduceScatterData dst %d is %dx%d, want %dx%d", i, d.Rows, d.Cols, block, cols))
		}
		d.CopyRect(0, 0, sum, i*block, 0, block, cols)
	}
}

// AllGatherData concatenates srcs row-wise in rank order into every dst.
func AllGatherData(srcs, dsts []*tensor.Matrix) {
	n := len(srcs)
	if n == 0 || len(dsts) != n {
		panic("comm: AllGatherData needs matching src/dst sets")
	}
	rows, cols := srcs[0].Rows, srcs[0].Cols
	for _, d := range dsts {
		if d.Rows != rows*n || d.Cols != cols {
			panic(fmt.Sprintf("comm: AllGatherData dst is %dx%d, want %dx%d", d.Rows, d.Cols, rows*n, cols))
		}
		for i, s := range srcs {
			if s.Rows != rows || s.Cols != cols {
				panic("comm: AllGatherData src shape mismatch")
			}
			d.CopyRect(i*rows, 0, s, 0, 0, rows, cols)
		}
	}
}

// AllToAllVData performs the variable-count exchange: for every pair (i, j),
// sendCounts[i][j] elements are copied from srcs[i] starting at
// sendOffs[i][j] into dsts[j] starting at recvOffs[j][i]. This matches
// ncclSend/ncclRecv loops used to construct All-to-All (§2.2).
func AllToAllVData(srcs, dsts [][]float32, sendCounts, sendOffs, recvOffs [][]int) {
	n := len(srcs)
	if len(dsts) != n || len(sendCounts) != n || len(sendOffs) != n || len(recvOffs) != n {
		panic("comm: AllToAllVData rank count mismatch")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cnt := sendCounts[i][j]
			if cnt == 0 {
				continue
			}
			src := srcs[i][sendOffs[i][j] : sendOffs[i][j]+cnt]
			dst := dsts[j][recvOffs[j][i] : recvOffs[j][i]+cnt]
			copy(dst, src)
		}
	}
}
