package expt

import (
	"fmt"
	"strings"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/reorder"
	"repro/internal/sim"
)

// Fig3Point is one tile's completion sample.
type Fig3Point struct {
	Index      int // tile index (a) or reordered slot (b)
	Completion sim.Time
	Wave       int
}

// Fig3Result reproduces the wave-pattern study: per-tile completion times
// plotted against the row-major tile index (without reordering — scattered,
// because of block swizzling) and against the reordered slot index (with
// our pre-communication reordering — a monotone staircase of waves).
type Fig3Result struct {
	Shape              gemm.Shape
	Tiles, Waves, SMs  int
	WithoutReorder     []Fig3Point
	WithReorder        []Fig3Point
	IntraWaveSpreadPct float64 // max completion spread within a wave / wave duration
}

// Fig3 runs the paper's setting: M=2048, N=K=8192 on an RTX 4090,
// swizzle size 3 (tile 128x256 yields the paper's 512 tiles in 4 waves).
func Fig3() (*Fig3Result, error) {
	plat := hw.RTX4090PCIe()
	shape := gemm.Shape{M: 2048, N: 8192, K: 8192}
	cfg := gemm.Config{TileM: 128, TileN: 256, Swizzle: 3}
	plan, err := gemm.NewPlan(shape, cfg)
	if err != nil {
		return nil, err
	}
	cm := gemm.NewCostModel(plat.GPU)
	sms := plat.GPU.SMs
	comps := cm.TileCompletions(plan, sms, 0x316)
	tm := reorder.NewTileMapping(plan)

	res := &Fig3Result{Shape: shape, Tiles: plan.Tiles, Waves: plan.Waves(sms), SMs: sms}
	waveDur := float64(cm.TileTime(plan, sms))
	spread := 0.0
	for pos, c := range comps {
		idx := plan.TileAt(pos)
		w := plan.WaveOfPos(pos, sms)
		res.WithoutReorder = append(res.WithoutReorder, Fig3Point{Index: idx, Completion: c, Wave: w})
		res.WithReorder = append(res.WithReorder, Fig3Point{Index: tm.SlotOf(idx), Completion: c, Wave: w})
		end := cm.WaveEnd(plan, sms, w)
		if d := float64(end-c) / waveDur; d > spread {
			spread = d
		}
	}
	res.IntraWaveSpreadPct = spread * 100
	return res, nil
}

// Format renders the result: wave boundaries, the misalignment between tile
// index and completion order, and the restored alignment after reordering.
func (r *Fig3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — wave pattern in GEMM execution (%v, RTX 4090)\n", r.Shape)
	fmt.Fprintf(&b, "tiles=%d  SMs=%d  waves=%d  intra-wave spread=%.1f%% of a wave\n\n",
		r.Tiles, r.SMs, r.Waves, r.IntraWaveSpreadPct)

	inv := 0
	for i := 1; i < len(r.WithoutReorder); i++ {
		if r.WithoutReorder[i].Index < r.WithoutReorder[i-1].Index {
			inv++
		}
	}
	fmt.Fprintf(&b, "(a) without reordering: %d index inversions along completion order (swizzling)\n", inv)
	inv = 0
	for i := 1; i < len(r.WithReorder); i++ {
		if r.WithReorder[i].Index < r.WithReorder[i-1].Index {
			inv++
		}
	}
	fmt.Fprintf(&b, "(b) with reordering:    %d index inversions (contiguous slots per wave)\n\n", inv)

	rows := make([][]string, 0, r.Waves)
	for w := 0; w < r.Waves; w++ {
		var lastComp sim.Time
		count := 0
		for _, p := range r.WithReorder {
			if p.Wave == w {
				count++
				if p.Completion > lastComp {
					lastComp = p.Completion
				}
			}
		}
		rows = append(rows, []string{
			fmt.Sprint(w + 1),
			fmt.Sprint(count),
			fmt.Sprintf("%.3f ms", lastComp.Millis()),
		})
	}
	b.WriteString(Table([]string{"wave", "tiles", "completes at"}, rows))
	return b.String()
}
