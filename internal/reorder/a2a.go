package reorder

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// A2AEntry records one subtoken in a destination memory pool: which token
// (output row) it is a slice of and which tile column it carries.
type A2AEntry struct {
	Token   int // row of the source GPU's M x N output
	ColTile int // tile column: carries columns [ColTile*TileN, ...)
}

// A2ALayout is one source GPU's subtoken mapping for All-to-All (Fig. 7f).
// Every output row ("token") has a destination GPU given by a routing table
// (MoE gating). Each tile is split by row into subtokens; subtokens are
// appended to a per-destination memory pool in execution order, so when a
// wave group signals, the group's additions to every pool are contiguous
// and can be sent with one variable-count All-to-All.
type A2ALayout struct {
	Plan   *gemm.Plan
	NGPUs  int
	Bounds []gemm.GroupBound
	Dest   []int // token -> destination GPU

	// pools[j] lists the entries destined for GPU j in emission order.
	pools [][]A2AEntry
	// groupStart[j][g] is the index within pools[j] where group g's
	// entries begin; it has Groups()+1 entries (prefix offsets).
	groupStart [][]int
	// entryPool/entrySlot locate each (position, tileRow) subtoken:
	// indexed by pos*TileM+row.
	entryPool []int
	entrySlot []int
	// poolBase[j] is the element offset of pool j within the flat
	// concatenated send buffer.
	poolBase []int
}

// NewA2ALayout builds the layout for a source GPU with the given routing.
func NewA2ALayout(p *gemm.Plan, bounds []gemm.GroupBound, nGPUs int, dest []int) (*A2ALayout, error) {
	if nGPUs < 1 {
		return nil, fmt.Errorf("reorder: invalid GPU count %d", nGPUs)
	}
	if len(dest) != p.Shape.M {
		return nil, fmt.Errorf("reorder: routing table has %d tokens, want %d", len(dest), p.Shape.M)
	}
	for r, d := range dest {
		if d < 0 || d >= nGPUs {
			return nil, fmt.Errorf("reorder: token %d routed to invalid GPU %d", r, d)
		}
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("reorder: no group bounds")
	}
	l := &A2ALayout{
		Plan:       p,
		NGPUs:      nGPUs,
		Bounds:     bounds,
		Dest:       dest,
		pools:      make([][]A2AEntry, nGPUs),
		groupStart: make([][]int, nGPUs),
		entryPool:  make([]int, p.Tiles*p.Cfg.TileM),
		entrySlot:  make([]int, p.Tiles*p.Cfg.TileM),
	}
	for j := range l.groupStart {
		l.groupStart[j] = make([]int, len(bounds)+1)
	}
	covered := 0
	for g, b := range bounds {
		if b.PosLo != covered {
			return nil, fmt.Errorf("reorder: group %d starts at %d, want %d", g, b.PosLo, covered)
		}
		covered = b.PosHi
		for pos := b.PosLo; pos < b.PosHi; pos++ {
			idx := p.TileAt(pos)
			r0, _, rows, _ := p.TileRect(idx)
			for i := 0; i < rows; i++ {
				token := r0 + i
				j := dest[token]
				l.entryPool[pos*p.Cfg.TileM+i] = j
				l.entrySlot[pos*p.Cfg.TileM+i] = len(l.pools[j])
				l.pools[j] = append(l.pools[j], A2AEntry{Token: token, ColTile: idx % p.ColTiles})
			}
		}
		for j := range l.pools {
			l.groupStart[j][g+1] = len(l.pools[j])
		}
	}
	if covered != p.Tiles {
		return nil, fmt.Errorf("reorder: groups cover %d of %d tiles", covered, p.Tiles)
	}
	l.poolBase = make([]int, nGPUs+1)
	for j := 0; j < nGPUs; j++ {
		l.poolBase[j+1] = l.poolBase[j] + len(l.pools[j])*p.Cfg.TileN
	}
	return l, nil
}

// SendElems reports the flat send-buffer size in elements (all pools
// concatenated: M*N of the source's output).
func (l *A2ALayout) SendElems() int { return l.poolBase[l.NGPUs] }

// NewSendBuffer allocates the flat send buffer holding all pools.
func (l *A2ALayout) NewSendBuffer() []float32 { return make([]float32, l.SendElems()) }

// PoolEntries returns the entries destined for GPU j, in emission order.
func (l *A2ALayout) PoolEntries(j int) []A2AEntry { return l.pools[j] }

// GroupPoolRange reports the entry index range [lo, hi) that group g
// appended to pool j.
func (l *A2ALayout) GroupPoolRange(j, g int) (lo, hi int) {
	return l.groupStart[j][g], l.groupStart[j][g+1]
}

// SendOffset reports the element offset of entry slot s of pool j within
// the flat send buffer.
func (l *A2ALayout) SendOffset(j, s int) int {
	return l.poolBase[j] + s*l.Plan.Cfg.TileN
}

// ScatterTile appends the subtokens of a computed tile to their destination
// pools. Offsets are precomputed, so this is a pure scattering store —
// exactly what the fused GEMM epilogue does.
func (l *A2ALayout) ScatterTile(buf []float32, tile *tensor.Matrix, idx int) {
	p := l.Plan
	if tile.Rows != p.Cfg.TileM || tile.Cols != p.Cfg.TileN {
		panic(fmt.Sprintf("reorder: tile is %dx%d, want %dx%d", tile.Rows, tile.Cols, p.Cfg.TileM, p.Cfg.TileN))
	}
	if len(buf) != l.SendElems() {
		panic(fmt.Sprintf("reorder: send buffer has %d elems, want %d", len(buf), l.SendElems()))
	}
	pos := p.PosOf(idx)
	tn := p.Cfg.TileN
	for i := 0; i < p.Cfg.TileM; i++ {
		j := l.entryPool[pos*p.Cfg.TileM+i]
		off := l.SendOffset(j, l.entrySlot[pos*p.Cfg.TileM+i])
		copy(buf[off:off+tn], tile.Row(i))
	}
}

// A2AExchange combines the layouts of all source GPUs and precomputes the
// receive-side placement: GPU j's reference output stacks the tokens routed
// to it ordered by (source GPU, token index), the same order a vanilla
// All-to-All produces, so overlapped and reference runs can be compared
// row-for-row.
type A2AExchange struct {
	N       int
	Layouts []*A2ALayout
	// rowOn[j] maps (source i, token r) -> output row on GPU j, or -1.
	rowOn [][]int // indexed [j][i*M+r]
	// tokensTo[j] is GPU j's output row count.
	tokensTo []int
	// recvBase[j][i] is the element offset in GPU j's receive buffer
	// where source i's region begins; regions are ordered by source and,
	// within a source, by group then emission order.
	recvBase [][]int
}

// NewA2AExchange builds the exchange from per-source routing tables. All
// sources must share a plan shape/config and group bounds (TP/EP symmetric
// execution), though their routings differ.
func NewA2AExchange(p *gemm.Plan, bounds []gemm.GroupBound, dests [][]int) (*A2AExchange, error) {
	n := len(dests)
	if n < 1 {
		return nil, fmt.Errorf("reorder: no sources")
	}
	e := &A2AExchange{N: n, tokensTo: make([]int, n)}
	for i, d := range dests {
		l, err := NewA2ALayout(p, bounds, n, d)
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", i, err)
		}
		e.Layouts = append(e.Layouts, l)
	}
	m := p.Shape.M
	e.rowOn = make([][]int, n)
	e.recvBase = make([][]int, n)
	for j := 0; j < n; j++ {
		e.rowOn[j] = make([]int, n*m)
		for k := range e.rowOn[j] {
			e.rowOn[j][k] = -1
		}
		e.recvBase[j] = make([]int, n+1)
		row := 0
		for i := 0; i < n; i++ {
			e.recvBase[j][i] = len(e.Layouts[i].pools[j]) // entry count, fixed below
			for r := 0; r < m; r++ {
				if dests[i][r] == j {
					e.rowOn[j][i*m+r] = row
					row++
				}
			}
		}
		e.tokensTo[j] = row
		// Convert per-source entry counts into element prefix offsets.
		prefix := 0
		for i := 0; i < n; i++ {
			cnt := e.recvBase[j][i] * p.Cfg.TileN
			e.recvBase[j][i] = prefix
			prefix += cnt
		}
		e.recvBase[j][n] = prefix
	}
	return e, nil
}

// TokensTo reports GPU j's output token count.
func (e *A2AExchange) TokensTo(j int) int { return e.tokensTo[j] }

// OutputRowOf reports where token r of source i lands in GPU j's output
// (-1 if it is not routed to j).
func (e *A2AExchange) OutputRowOf(j, i, r int) int {
	return e.rowOn[j][i*e.Layouts[0].Plan.Shape.M+r]
}

// RecvElems reports GPU j's receive-buffer size in elements.
func (e *A2AExchange) RecvElems(j int) int { return e.recvBase[j][e.N] }

// NewRecvBuffer allocates GPU j's receive buffer.
func (e *A2AExchange) NewRecvBuffer(j int) []float32 { return make([]float32, e.RecvElems(j)) }

// GroupCounts returns sendCounts/sendOffs/recvOffs (element granularity)
// for group g's All-to-AllV call, in the shapes comm.AllToAllV expects.
func (e *A2AExchange) GroupCounts(g int) (counts, sendOffs, recvOffs [][]int) {
	n := e.N
	tn := e.Layouts[0].Plan.Cfg.TileN
	counts = make([][]int, n)
	sendOffs = make([][]int, n)
	recvOffs = make([][]int, n)
	for i := 0; i < n; i++ {
		counts[i] = make([]int, n)
		sendOffs[i] = make([]int, n)
		recvOffs[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		li := e.Layouts[i]
		for j := 0; j < n; j++ {
			lo, hi := li.GroupPoolRange(j, g)
			counts[i][j] = (hi - lo) * tn
			sendOffs[i][j] = li.SendOffset(j, lo)
		}
	}
	// Receive offsets: source i's group-g entries land after its earlier
	// groups within its region of GPU j's buffer.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			lo, _ := e.Layouts[i].GroupPoolRange(j, g)
			recvOffs[j][i] = e.recvBase[j][i] + lo*tn
		}
	}
	return counts, sendOffs, recvOffs
}

// GroupBytes reports per-rank payload bytes for group g's exchange: each
// rank's max of send and receive volume, which pins completion to the most
// loaded GPU (the imbalance effect of §4.2.2).
func (e *A2AExchange) GroupBytes(g int) []int64 {
	n := e.N
	tn := int64(e.Layouts[0].Plan.Cfg.TileN)
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		var send, recv int64
		for j := 0; j < n; j++ {
			slo, shi := e.Layouts[i].GroupPoolRange(j, g)
			send += int64(shi-slo) * tn
			rlo, rhi := e.Layouts[j].GroupPoolRange(i, g)
			recv += int64(rhi-rlo) * tn
		}
		bytes := send
		if recv > bytes {
			bytes = recv
		}
		out[i] = bytes * 2 // half precision
	}
	return out
}

// Gather performs GPU j's post-communication reorder: the receive buffer's
// subtokens are placed at their (source, token) rows and tile-column
// offsets in dst, which must be TokensTo(j) x N.
func (e *A2AExchange) Gather(j int, dst *tensor.Matrix, recv []float32) {
	p := e.Layouts[0].Plan
	if dst.Rows != e.tokensTo[j] || dst.Cols != p.Shape.N {
		panic(fmt.Sprintf("reorder: a2a gather dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, e.tokensTo[j], p.Shape.N))
	}
	if len(recv) != e.RecvElems(j) {
		panic(fmt.Sprintf("reorder: recv buffer has %d elems, want %d", len(recv), e.RecvElems(j)))
	}
	tn := p.Cfg.TileN
	m := p.Shape.M
	for i := 0; i < e.N; i++ {
		entries := e.Layouts[i].PoolEntries(j)
		base := e.recvBase[j][i]
		for s, ent := range entries {
			row := e.rowOn[j][i*m+ent.Token]
			src := recv[base+s*tn : base+(s+1)*tn]
			copy(dst.Row(row)[ent.ColTile*tn:(ent.ColTile+1)*tn], src)
		}
	}
}

// GatherFusedRMSNorm fuses GPU j's post-communication subtoken reorder into
// a row-wise RMSNorm (Table 5's subtoken granularity): each output row is
// assembled from its subtokens via the mapping tables, normalized, and
// written once — the reorder costs table indirection, not extra volume.
func (e *A2AExchange) GatherFusedRMSNorm(j int, dst *tensor.Matrix, recv []float32, weight []float32, eps float64) {
	p := e.Layouts[0].Plan
	if dst.Rows != e.tokensTo[j] || dst.Cols != p.Shape.N {
		panic(fmt.Sprintf("reorder: fused a2a dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, e.tokensTo[j], p.Shape.N))
	}
	if len(weight) != p.Shape.N {
		panic(fmt.Sprintf("reorder: weight len %d != N %d", len(weight), p.Shape.N))
	}
	tn := p.Cfg.TileN
	m := p.Shape.M
	// rowSrc[row*ColTiles + colTile] = element offset of the subtoken in
	// recv; built from the mapping tables (known offline).
	rowSrc := make([]int, e.tokensTo[j]*p.ColTiles)
	for i := 0; i < e.N; i++ {
		entries := e.Layouts[i].PoolEntries(j)
		base := e.recvBase[j][i]
		for s, ent := range entries {
			row := e.rowOn[j][i*m+ent.Token]
			rowSrc[row*p.ColTiles+ent.ColTile] = base + s*tn
		}
	}
	segs := make([][]float32, p.ColTiles)
	for r := 0; r < e.tokensTo[j]; r++ {
		for tc := 0; tc < p.ColTiles; tc++ {
			off := rowSrc[r*p.ColTiles+tc]
			segs[tc] = recv[off : off+tn]
		}
		rmsNormSegments(dst.Row(r), segs, tn, weight, eps)
	}
}

// ReferenceOutput computes GPU j's expected All-to-All output from the
// sources' full (unreordered) matrices: tokens routed to j stacked in
// (source, token) order.
func (e *A2AExchange) ReferenceOutput(j int, fullOutputs []*tensor.Matrix) *tensor.Matrix {
	p := e.Layouts[0].Plan
	out := tensor.New(e.tokensTo[j], p.Shape.N)
	row := 0
	for i, src := range fullOutputs {
		for r := 0; r < p.Shape.M; r++ {
			if e.Layouts[i].Dest[r] == j {
				copy(out.Row(row), src.Row(r))
				row++
			}
		}
	}
	return out
}
