// Package gemm models tiled general matrix multiplication the way the
// paper's CUTLASS substrate executes it: the M x N output is partitioned
// into tiles, tiles are dispatched to SMs in a (possibly swizzled) launch
// order, and execution proceeds in waves — sets of tiles that finish nearly
// simultaneously (Fig. 3). The package provides both the timing model
// (wave schedule, roofline-style durations) and the functional computation
// (real float32 per-tile matmul with a fusable epilogue), so overlap
// runners built on top can be checked for bit-level correctness.
package gemm

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Shape is a GEMM problem size: A is MxK, B is KxN, C is MxN.
type Shape struct {
	M, N, K int
}

// String renders like the paper's shape tuples.
func (s Shape) String() string { return fmt.Sprintf("M%d-N%d-K%d", s.M, s.N, s.K) }

// Flops returns the multiply-accumulate work (2MNK).
func (s Shape) Flops() float64 { return 2 * float64(s.M) * float64(s.N) * float64(s.K) }

// OutputBytes returns the size of C in the paper's half precision.
func (s Shape) OutputBytes() int64 { return int64(s.M) * int64(s.N) * 2 }

// LogCell quantizes the shape's (log2 M·N, log2 K) coordinates — the plane
// the tuner's nearest-neighbor cache matches in (§4.2.2) — to quantum-wide
// cells. Shapes in one cell are "the same size" at that granularity: the
// shard partitioner hashes half-log cells into replica ownership, and the
// mixed-fidelity sweep ranks analytic candidates within coarser cells
// before picking which to confirm on the simulator.
func (s Shape) LogCell(quantum float64) (qx, qy int64) {
	lmn := math.Log2(float64(s.M) * float64(s.N))
	lk := math.Log2(float64(s.K))
	return int64(math.Round(lmn / quantum)), int64(math.Round(lk / quantum))
}

// Validate rejects non-positive dimensions.
func (s Shape) Validate() error {
	if s.M <= 0 || s.N <= 0 || s.K <= 0 {
		return fmt.Errorf("gemm: invalid shape %v", s)
	}
	return nil
}

// Config selects the tiling and launch-order parameters of a GEMM kernel
// ("GEMM configuration" in Alg. 1's offline stage).
type Config struct {
	// TileM, TileN are the output tile dimensions.
	TileM, TileN int
	// Swizzle is the block-swizzling group width in tile columns;
	// values <= 1 mean the identity (row-major) launch order.
	Swizzle int
}

// DefaultConfig mimics the CUTLASS profiler's choice: the largest standard
// tile that divides the problem, with a swizzle of 3 (the paper's Fig. 3
// setting) when it is non-trivial.
func DefaultConfig(s Shape) Config {
	pick := func(dim int, candidates ...int) int {
		for _, c := range candidates {
			if dim%c == 0 {
				return c
			}
		}
		return 1
	}
	cfg := Config{
		TileM:   pick(s.M, 128, 64, 32, 16, 8, 4, 2),
		TileN:   pick(s.N, 128, 64, 32, 16, 8, 4, 2),
		Swizzle: 3,
	}
	return cfg
}

// MaxTiles bounds the tile grid of every plan. A plan itself is O(1) —
// its launch order is computed, not stored — but what is built from one
// is not: per-wave partitions and group bounds, the functional buffers
// and reorder layouts, and a counting table's per-tile bitmap on its first
// single-tile Add all grow with the grid. Without a bound a ~100-byte plan
// definition off the wire (or a /query shape whose odd dimensions force
// one-element tiles) could demand more memory than any host has. The
// largest grid the paper's figures build, M51200-N8192 in 128x128 tiles,
// has 25,600.
const MaxTiles = 1 << 20

// ErrTooManyTiles is wrapped by every rejection of a tile grid over
// MaxTiles, so callers can classify an unplannable shape as a property of
// the request rather than an internal failure.
var ErrTooManyTiles = fmt.Errorf("gemm: tile grid exceeds %d tiles", MaxTiles)

// Plan is a fully resolved tile schedule for one GEMM. The launch order
// follows from (RowTiles, ColTiles, Cfg.Swizzle) in closed form — TileAt
// maps an execution position to its tile and PosOf inverts it — so a plan
// holds nothing per tile. Its JSON form is its definition: Shape, Cfg and
// the tile grid, which UnmarshalJSON checks against NewPlan's.
type Plan struct {
	Shape Shape
	Cfg   Config
	// RowTiles, ColTiles, Tiles describe the tile grid over C.
	RowTiles, ColTiles, Tiles int
}

// CheckPlan reports the error NewPlan(s, cfg) would return, without
// allocating a Plan: request validation can reject an unplannable shape
// at no allocation cost.
func CheckPlan(s Shape, cfg Config) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if cfg.TileM <= 0 || cfg.TileN <= 0 {
		return fmt.Errorf("gemm: invalid tile %dx%d", cfg.TileM, cfg.TileN)
	}
	if s.M%cfg.TileM != 0 || s.N%cfg.TileN != 0 {
		return fmt.Errorf("gemm: tile %dx%d does not divide shape %v", cfg.TileM, cfg.TileN, s)
	}
	// Divide rather than multiply: rows*cols can overflow int.
	if rows, cols := s.M/cfg.TileM, s.N/cfg.TileN; rows > MaxTiles/cols {
		return fmt.Errorf("%w: %v in %dx%d tiles is a %dx%d grid", ErrTooManyTiles, s, cfg.TileM, cfg.TileN, rows, cols)
	}
	return nil
}

// NewPlan validates the config against the shape and resolves the tile
// grid; it allocates nothing but the Plan. Tile dimensions must divide the
// problem so that every tile (and later every subtile) is full-size;
// DefaultConfig always satisfies this. The grid may hold at most MaxTiles
// tiles.
func NewPlan(s Shape, cfg Config) (*Plan, error) {
	if err := CheckPlan(s, cfg); err != nil {
		return nil, err
	}
	p := &Plan{
		Shape:    s,
		Cfg:      cfg,
		RowTiles: s.M / cfg.TileM,
		ColTiles: s.N / cfg.TileN,
	}
	p.Tiles = p.RowTiles * p.ColTiles
	return p, nil
}

// RebuildPlan rebuilds the plan a definition describes — its Shape, Cfg
// and tile grid, the fields of a plan's JSON form — with NewPlan, so a
// decoded plan is indistinguishable from an in-process one. It rejects a
// definition NewPlan rejects (MaxTiles included) and a tile grid that
// disagrees with the rebuilt one. Every decoder of a plan calls it, so one
// rule validates a plan off the wire.
func RebuildPlan(def Plan) (*Plan, error) {
	p, err := NewPlan(def.Shape, def.Cfg)
	if err != nil {
		return nil, err
	}
	if def.RowTiles != p.RowTiles || def.ColTiles != p.ColTiles || def.Tiles != p.Tiles {
		return nil, fmt.Errorf("gemm: plan grid %dx%d (%d tiles) disagrees with %v in %dx%d tiles (%dx%d, %d tiles)",
			def.RowTiles, def.ColTiles, def.Tiles, def.Shape, def.Cfg.TileM, def.Cfg.TileN, p.RowTiles, p.ColTiles, p.Tiles)
	}
	return p, nil
}

// UnmarshalJSON decodes a plan's definition and rebuilds it with
// RebuildPlan. It writes p only on success.
func (p *Plan) UnmarshalJSON(data []byte) error {
	type definition Plan // no methods: decoding it does not recurse
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	q, err := RebuildPlan(Plan(d))
	if err != nil {
		return err
	}
	*p = *q
	return nil
}

// TileAt reports the row-major index of the tile launched at execution
// position pos. Without swizzling (Swizzle <= 1) tiles launch in row-major
// index order. With swizzle s, tile columns are grouped s at a time and
// each group is walked row-major — the CUTLASS-style rasterization that
// improves L2 locality but makes the completion order misaligned with
// memory addresses (Fig. 2b, Fig. 3a) — which is exactly why the paper
// needs reordering (§3.3). Position pos lies in column group
// g = pos / (RowTiles·s), of width w = min(s, ColTiles − g·s), at offset
// o = pos − g·RowTiles·s, so its tile is (o / w)·ColTiles + g·s + o mod w.
func (p *Plan) TileAt(pos int) int {
	if pos < 0 || pos >= p.Tiles {
		panic(fmt.Sprintf("gemm: position %d out of %d", pos, p.Tiles))
	}
	s := p.Cfg.Swizzle
	if s <= 1 || s >= p.ColTiles { // one column group: row-major
		return pos
	}
	g := pos / (p.RowTiles * s)
	w := min(s, p.ColTiles-g*s)
	o := pos - g*p.RowTiles*s
	return o/w*p.ColTiles + g*s + o%w
}

// PosOf reports the execution position of the tile with row-major index
// idx; it inverts TileAt.
func (p *Plan) PosOf(idx int) int {
	if idx < 0 || idx >= p.Tiles {
		panic(fmt.Sprintf("gemm: tile index %d out of %d", idx, p.Tiles))
	}
	s := p.Cfg.Swizzle
	if s <= 1 || s >= p.ColTiles {
		return idx
	}
	r, c := idx/p.ColTiles, idx%p.ColTiles
	g := c / s
	w := min(s, p.ColTiles-g*s)
	return g*p.RowTiles*s + r*w + c - g*s
}

// TileRect returns the output rectangle of the tile with row-major index
// idx: top-left (r0, c0) and extent (TileM x TileN).
func (p *Plan) TileRect(idx int) (r0, c0, rows, cols int) {
	if idx < 0 || idx >= p.Tiles {
		panic(fmt.Sprintf("gemm: tile index %d out of %d", idx, p.Tiles))
	}
	tr, tc := idx/p.ColTiles, idx%p.ColTiles
	return tr * p.Cfg.TileM, tc * p.Cfg.TileN, p.Cfg.TileM, p.Cfg.TileN
}

// Waves reports the number of execution waves given sms concurrent tiles.
func (p *Plan) Waves(sms int) int {
	if sms <= 0 {
		panic(fmt.Sprintf("gemm: non-positive SM count %d", sms))
	}
	return (p.Tiles + sms - 1) / sms
}

// WaveOfPos reports which wave the tile at execution position pos belongs
// to, given sms concurrent tiles per wave.
func (p *Plan) WaveOfPos(pos, sms int) int {
	if pos < 0 || pos >= p.Tiles {
		panic(fmt.Sprintf("gemm: position %d out of %d", pos, p.Tiles))
	}
	if sms <= 0 {
		panic(fmt.Sprintf("gemm: non-positive SM count %d", sms))
	}
	return pos / sms
}

// WaveTiles returns the execution positions [lo, hi) belonging to wave w.
func (p *Plan) WaveTiles(w, sms int) (lo, hi int) {
	waves := p.Waves(sms)
	if w < 0 || w >= waves {
		panic(fmt.Sprintf("gemm: wave %d out of %d", w, waves))
	}
	lo = w * sms
	hi = lo + sms
	if hi > p.Tiles {
		hi = p.Tiles
	}
	return lo, hi
}

// TileBytes is the half-precision footprint of one output tile.
func (p *Plan) TileBytes() int64 { return int64(p.Cfg.TileM) * int64(p.Cfg.TileN) * 2 }

// CostModel turns a plan into durations on a specific GPU. It is a
// max(compute, memory) roofline per tile:
//
//	compute = 2*tm*tn*K / (perSM FLOPs * eff(K))
//	memory  = tileTraffic * activeSMs / memBW
//
// where eff(K) = MaxEfficiency * K/(K+MainloopHalfK) captures main-loop
// prologue/epilogue amortization, and tile traffic assumes a CacheReuse-fold
// reduction of A/B reads from L2 reuse across the wave.
type CostModel struct {
	GPU hw.GPUSpec
	// CacheReuse is the assumed L2 reuse factor for A/B operand traffic.
	CacheReuse float64
}

// NewCostModel returns the cost model used throughout the repository.
func NewCostModel(g hw.GPUSpec) CostModel {
	return CostModel{GPU: g, CacheReuse: 8}
}

// Efficiency returns the fraction of peak FLOPs reached at depth K.
func (cm CostModel) Efficiency(k int) float64 {
	return cm.GPU.MaxEfficiency * float64(k) / (float64(k) + cm.GPU.MainloopHalfK)
}

// TileTime is the duration of one wave (one tile per active SM), with
// activeSMs tiles in flight.
func (cm CostModel) TileTime(p *Plan, activeSMs int) sim.Time {
	if activeSMs <= 0 {
		panic(fmt.Sprintf("gemm: non-positive SM count %d", activeSMs))
	}
	tm, tn, k := float64(p.Cfg.TileM), float64(p.Cfg.TileN), float64(p.Shape.K)
	flops := 2 * tm * tn * k
	compute := flops / (cm.GPU.FlopsPerSM() * cm.Efficiency(p.Shape.K))
	traffic := ((tm*k+k*tn)/cm.CacheReuse + tm*tn) * 2 // bytes, half precision
	memory := traffic * float64(activeSMs) / cm.GPU.MemBandwidth
	t := compute
	if memory > t {
		t = memory
	}
	return sim.FromSeconds(t)
}

// Duration is the full kernel latency with activeSMs SMs: launch overhead
// plus one TileTime per wave. A trailing partial wave costs a full wave —
// idle SMs cannot shorten the straggler tiles.
func (cm CostModel) Duration(p *Plan, activeSMs int) sim.Time {
	return cm.GPU.KernelLaunch + sim.Time(int64(p.Waves(activeSMs)))*cm.TileTime(p, activeSMs)
}

// WaveEnd is the completion time of wave w relative to kernel start.
func (cm CostModel) WaveEnd(p *Plan, activeSMs, w int) sim.Time {
	waves := p.Waves(activeSMs)
	if w < 0 || w >= waves {
		panic(fmt.Sprintf("gemm: wave %d out of %d", w, waves))
	}
	return cm.GPU.KernelLaunch + sim.Time(int64(w+1))*cm.TileTime(p, activeSMs)
}

// TileCompletions returns the per-tile completion times (relative to kernel
// start) indexed by execution position. Tiles of one wave complete within
// an intra-wave spread of ~5% of the wave duration (§3.2.3), modeled with
// deterministic per-position jitter; the last tile of each wave lands
// exactly on the wave boundary so WaveEnd stays an upper bound.
func (cm CostModel) TileCompletions(p *Plan, activeSMs int, seed uint64) []sim.Time {
	tt := cm.TileTime(p, activeSMs)
	j := stats.NewJitter(seed)
	out := make([]sim.Time, p.Tiles)
	spread := float64(tt) * 0.05
	for pos := 0; pos < p.Tiles; pos++ {
		w := pos / activeSMs
		end := cm.GPU.KernelLaunch + sim.Time(int64(w+1))*tt
		_, hi := p.WaveTiles(w, activeSMs)
		if pos == hi-1 {
			out[pos] = end // wave straggler defines the boundary
			continue
		}
		out[pos] = end - sim.Time(spread*j.Uniform(uint64(pos)))
	}
	return out
}
