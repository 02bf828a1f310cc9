package expt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
)

func TestTable3GridsShapes(t *testing.T) {
	grids := Table3Grids(false)
	if len(grids) != 6 {
		t.Fatalf("grids = %d, want 6 (2 platforms x 3 primitives)", len(grids))
	}
	for _, g := range grids {
		if len(g.Shapes) == 0 {
			t.Fatalf("%s/%s: empty grid", g.Plat.Name, g.Prim)
		}
		for _, s := range g.Shapes {
			if s.Validate() != nil || s.M%128 != 0 || s.N%128 != 0 {
				t.Fatalf("%s/%s: bad shape %v", g.Plat.Name, g.Prim, s)
			}
		}
	}
	quick := Table3Grids(true)
	for i, g := range quick {
		if len(g.Shapes) >= len(grids[i].Shapes) {
			t.Fatalf("quick grid %d not smaller", i)
		}
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4", len(lines))
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("missing separator: %q", lines[1])
	}
}

func TestFig3WavePattern(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 512 tiles in 4 waves on 128 SMs.
	if r.Tiles != 512 || r.Waves != 4 {
		t.Fatalf("tiles=%d waves=%d, want 512/4", r.Tiles, r.Waves)
	}
	// Intra-wave spread stays within ~5% of a wave (§3.2.3).
	if r.IntraWaveSpreadPct > 5.5 {
		t.Fatalf("intra-wave spread %.1f%%, want <= ~5%%", r.IntraWaveSpreadPct)
	}
	// Without reordering the completion order disagrees with tile index
	// (swizzling); with reordering the slot index is exactly monotone.
	misordered := 0
	for i := 1; i < len(r.WithoutReorder); i++ {
		if r.WithoutReorder[i].Index < r.WithoutReorder[i-1].Index {
			misordered++
		}
	}
	if misordered == 0 {
		t.Fatal("swizzled completion order should be misaligned with tile index")
	}
	for i := 1; i < len(r.WithReorder); i++ {
		if r.WithReorder[i].Index != i {
			t.Fatalf("reordered slot %d holds index %d", i, r.WithReorder[i].Index)
		}
		// The staircase is monotone at wave granularity (points scatter
		// within a wave's ~5% completion band, as in the paper's plot).
		if r.WithReorder[i].Wave < r.WithReorder[i-1].Wave {
			t.Fatal("reordered slots must walk waves in order")
		}
	}
	if !strings.Contains(r.Format(), "wave") {
		t.Fatal("Format output empty")
	}
}

func TestFig4Fractions(t *testing.T) {
	rows, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 workloads (prefill + decode + 3)", len(rows))
	}
	for _, r := range rows {
		var sum float64
		for _, f := range r.Fractions {
			if f < 0 || f > 1 {
				t.Fatalf("%s: fraction %v out of range", r.Model, f)
			}
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: fractions sum to %v", r.Model, sum)
		}
	}
	if !strings.Contains(FormatFig4(rows), "GEMM+") {
		t.Fatal("format output missing patterns")
	}
}

func TestFig8Cliff(t *testing.T) {
	series := Fig8()
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) < 10 {
			t.Fatalf("%s: too few points", s.Platform)
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if first.Y >= last.Y/5 {
			t.Fatalf("%s: no sharp degradation (%.2f vs %.2f GB/s)", s.Platform, first.Y/1e9, last.Y/1e9)
		}
		if s.Knee <= 0 {
			t.Fatalf("%s: knee not found", s.Platform)
		}
	}
	if !strings.Contains(FormatFig8(series), "GB/s") {
		t.Fatal("format output empty")
	}
}

func TestFig10QuickGrid(t *testing.T) {
	groups, cases, err := Fig10(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 6 {
		t.Fatalf("groups = %d, want 6 in quick mode", len(groups))
	}
	for _, g := range groups {
		fo, ok := g.PerM[MethodFlashOverlap]
		if !ok {
			t.Fatalf("%s/%s: missing FlashOverlap", g.Plat, g.Prim)
		}
		if fo.Mean < 0.9 || fo.Mean > 1.8 {
			t.Fatalf("%s/%s n=%d: FlashOverlap mean speedup %.2f out of plausible band", g.Plat, g.Prim, g.NGPUs, fo.Mean)
		}
		// FlashOverlap's average must beat vanilla decomposition's.
		if vd, ok := g.PerM[MethodVanillaDecmp]; ok && fo.Mean < vd.Mean {
			t.Errorf("%s/%s n=%d: FlashOverlap (%.2f) below decomposition (%.2f)", g.Plat, g.Prim, g.NGPUs, fo.Mean, vd.Mean)
		}
		// ...and edge out FLUX on average (FLUX still wins individual
		// small-K cases — the Fig. 11 exception).
		if fx, ok := g.PerM[MethodFlux]; ok && fo.Mean < fx.Mean-0.02 {
			t.Errorf("%s/%s n=%d: FlashOverlap (%.2f) below FLUX (%.2f) on average", g.Plat, g.Prim, g.NGPUs, fo.Mean, fx.Mean)
		}
		// No P2P methods on the PCIe box.
		if g.Plat == "RTX4090-PCIe" {
			if _, ok := g.PerM[MethodFlux]; ok {
				t.Errorf("FLUX reported on non-P2P platform")
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("no cases")
	}
	if !strings.Contains(FormatFig10(groups), "FlashOverlap") {
		t.Fatal("format output empty")
	}
}

func TestFig11Quick(t *testing.T) {
	cases, err := Fig11(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 5 {
		t.Fatalf("cases = %d", len(cases))
	}
	wins := 0
	for _, c := range cases {
		if c.Speedups[MethodFlashOverlap] >= c.Speedups[MethodVanillaDecmp] {
			wins++
		}
	}
	// The paper: FlashOverlap consistently outperforms except some small-K
	// fusion cases; against decomposition it should win nearly always.
	if wins < len(cases)-1 {
		t.Fatalf("FlashOverlap beat decomposition on only %d/%d shapes", wins, len(cases))
	}
	_ = FormatFig11(cases)
}

func TestFig13Quick(t *testing.T) {
	panels, err := Fig13(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("panels = %d", len(panels))
	}
	for _, p := range panels {
		for _, row := range p.Cells {
			for _, c := range row {
				if c.TheoryRatio > 1.02 {
					t.Fatalf("%s %v: theory ratio %.2f exceeds 1", p.Plat, c.Shape, c.TheoryRatio)
				}
				if c.TheoryRatio < 0.3 {
					t.Fatalf("%s %v: theory ratio %.2f implausibly low", p.Plat, c.Shape, c.TheoryRatio)
				}
			}
		}
	}
	_ = FormatFig13(panels)
}

func TestFig16AllCasesAccelerate(t *testing.T) {
	cases, err := Fig16(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 16 {
		t.Fatalf("cases = %d, want 8 shapes x 2 TPs", len(cases))
	}
	for _, c := range cases {
		sp := c.Speedups[MethodFlashOverlap]
		// §6.7: consistent acceleration, up to 1.37x.
		if sp < 1.0 {
			t.Errorf("Ascend %v TP=%d: slowdown %.3f", c.Shape, c.NGPUs, sp)
		}
		if sp > 1.6 {
			t.Errorf("Ascend %v TP=%d: implausible %.3f", c.Shape, c.NGPUs, sp)
		}
	}
	_ = FormatFig16(cases)
}

func TestCorrectnessAllClose(t *testing.T) {
	cases, err := Correctness(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if !c.AllClose {
			t.Errorf("%v n=%d %v: max diff %g", c.Prim, c.NGPUs, c.Shape, c.MaxDiff)
		}
	}
	out := FormatCorrectness(cases)
	if !strings.Contains(out, "all close") {
		t.Fatal("format output missing verdicts")
	}
}

func TestTable5OverheadBounds(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		// CPU timing is noisy; demand only the right order of magnitude:
		// fused reorder costs something but never doubles the kernel.
		if r.OverheadPct > 100 {
			t.Errorf("%s/%s: overhead %.1f%% implausible", r.Kernel, r.Granularity, r.OverheadPct)
		}
		// The lower bound only guards against gross measurement breakage
		// (mismatched work between the pair). On some CPUs the fused
		// kernel's blocked tile-width traversal reproducibly beats the
		// baseline's long contiguous rows by 30-40%, so the bound must
		// sit below that hardware effect.
		if r.OverheadPct < -60 {
			t.Errorf("%s/%s: fused kernel %1.f%% faster than baseline — measurement broken", r.Kernel, r.Granularity, r.OverheadPct)
		}
	}
	_ = FormatTable5(rows)
}

func TestFig14Ablation(t *testing.T) {
	cases, err := Fig14(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 6 {
		t.Fatalf("cases = %d, want 6", len(cases))
	}
	for _, c := range cases {
		flash := c.Bars[MethodFlashOverlap]
		if flash <= 0 {
			t.Fatalf("%v: missing FlashOverlap bar", c.Shape)
		}
		// The tuned configuration must not lose to any fixed strategy by
		// more than jitter; §6.5 claims it outperforms all equal-sized
		// groupings.
		for name, v := range c.Bars {
			if name == MethodFlashOverlap {
				continue
			}
			if v > flash*1.06 {
				t.Errorf("%s %v: %s (%.3f) beats tuned (%.3f) beyond tolerance", c.Plat, c.Shape, name, v, flash)
			}
		}
	}
	_ = FormatFig14(cases)
}

func TestFig15ErrorAndQuality(t *testing.T) {
	results, err := Fig15(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.ErrorsPct) < 20 {
			t.Fatalf("%s: only %d error samples", r.Plat, len(r.ErrorsPct))
		}
		// Paper: 3.41%/3.44% mean error; accept < 8%.
		if r.MeanPct > 8 {
			t.Errorf("%s: mean error %.2f%%, want < 8%%", r.Plat, r.MeanPct)
		}
		// Claim C2: >99% of the exhaustive optimum; allow 97% for jitter.
		if r.MinQuality < 0.97 {
			t.Errorf("%s: search quality %.3f, want > 0.97", r.Plat, r.MinQuality)
		}
	}
	_ = FormatFig15(results)
}

// TestFig15Digest pins the simulated numbers themselves: the quick Fig. 15
// pass's ErrorsPct and SearchQuality, bit for bit, fingerprinted the way
// perfbench's sweep-oracle workload does. A change to a simulated time,
// a predictor or the candidate order moves the digest.
func TestFig15Digest(t *testing.T) {
	results, err := Fig15(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "%s", r.Plat)
		for _, x := range r.ErrorsPct {
			fmt.Fprintf(&b, " %x", math.Float64bits(x))
		}
		for _, x := range r.SearchQuality {
			fmt.Fprintf(&b, " %x", math.Float64bits(x))
		}
	}
	const want = "1b38a4b89d574e60"
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))[:16]; got != want {
		t.Fatalf("quick Fig. 15 digest %s, want %s", got, want)
	}
}

func TestGPUCountsMatchPaper(t *testing.T) {
	if len(GPUCounts) != 3 || GPUCounts[0] != 2 || GPUCounts[2] != 8 {
		t.Fatalf("GPUCounts = %v", GPUCounts)
	}
	if hw.TrafficFactor(hw.AllReduce, 8) != 1.75 {
		t.Fatal("sanity: 8-GPU AllReduce factor")
	}
}
