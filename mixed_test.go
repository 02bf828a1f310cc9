// Mixed-fidelity sweep acceptance tests: the analytic fast path must rank
// well enough that DES refinement lands on the right candidates, and the
// mixed orchestration must change which items get simulator-grade answers
// without ever changing the answers themselves.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
)

// gridRuns builds one quick Table 3 grid as engine runs (shape-major, the
// sweep CLIs' order).
func gridRuns(grid expt.ShapeGrid) []core.Options {
	var runs []core.Options
	for _, shape := range grid.Shapes {
		runs = append(runs, core.Options{Plat: grid.Plat, NGPUs: 4, Shape: shape, Prim: grid.Prim, Imbalance: imbalanceFor(grid.Prim)})
	}
	return runs
}

// Ranking agreement, the property the mixed mode's correctness rests on:
// within every rank cell of every quick Table 3 grid, the analytic top-k
// must contain the configuration DES itself would rank fastest. At the
// default k the analytic and DES per-cell argmins must coincide — the
// refined tier then provably contains the DES optimum per shape bucket.
func TestMixedRankingContainsDESOptimumPerCell(t *testing.T) {
	for _, grid := range expt.Table3Grids(true) {
		runs := gridRuns(grid)
		eng := engine.New(0, 0)
		analytic := make([]core.Options, len(runs))
		for i, o := range runs {
			o.Fidelity = core.FidelityAnalytic
			analytic[i] = o
		}
		aRes, err := eng.Batch(context.Background(), analytic)
		if err != nil {
			t.Fatalf("%s/%s: %v", grid.Plat.Name, grid.Prim, err)
		}
		dRes, err := eng.Batch(context.Background(), runs)
		if err != nil {
			t.Fatalf("%s/%s: %v", grid.Plat.Name, grid.Prim, err)
		}
		shapes := make([]gemm.Shape, len(runs))
		aLat := make([]sim.Time, len(runs))
		for i := range runs {
			shapes[i] = runs[i].Shape
			aLat[i] = aRes[i].Latency
		}
		refined := engine.RankTopK(shapes, aLat, engine.DefaultTopK, engine.DefaultRankQuantum)
		inRefined := make(map[int]bool, len(refined))
		for _, gi := range refined {
			inRefined[gi] = true
		}
		// DES argmin per rank cell must be among the analytic top-k.
		argmin := map[[2]int64]int{}
		for i, s := range shapes {
			qx, qy := s.LogCell(engine.DefaultRankQuantum)
			cell := [2]int64{qx, qy}
			best, ok := argmin[cell]
			if !ok || dRes[i].Latency < dRes[best].Latency {
				argmin[cell] = i
			}
		}
		for cell, i := range argmin {
			if !inRefined[i] {
				t.Errorf("%s/%s cell %v: DES optimum (run %d, %v) missed by analytic top-%d",
					grid.Plat.Name, grid.Prim, cell, i, shapes[i], engine.DefaultTopK)
			}
		}
	}
}

// marshalResults is the byte-comparison form shared by the identity tests.
func marshalResults(t *testing.T, results []*core.Result) []byte {
	t.Helper()
	got, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// quickMixedGrid crosses the deduped quick Table 3 shapes with all three
// primitives on one platform — the grid the mixed benchmarks and identity
// tests share.
func quickMixedGrid() []core.Options {
	seen := map[gemm.Shape]bool{}
	var runs []core.Options
	for _, grid := range expt.Table3Grids(true) {
		for _, s := range grid.Shapes {
			if seen[s] {
				continue
			}
			seen[s] = true
			for _, p := range []hw.Primitive{hw.AllReduce, hw.ReduceScatter, hw.AllToAll} {
				runs = append(runs, core.Options{Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: s, Prim: p, Imbalance: imbalanceFor(p)})
			}
		}
	}
	return runs
}

// localCoordinator is a sharded sweep without a network: a Coordinator over
// shards in-process replicas (LocalClients) of one platform and GPU count.
func localCoordinator(tb testing.TB, plat hw.Platform, nGPUs, shards int) *shard.Coordinator {
	tb.Helper()
	clients := make([]shard.Client, shards)
	for k := range clients {
		svc, err := serve.New(serve.Config{Plat: plat, NGPUs: nGPUs})
		if err != nil {
			tb.Fatal(err)
		}
		clients[k] = &shard.LocalClient{Svc: svc}
	}
	router, err := shard.NewRouter(clients)
	if err != nil {
		tb.Fatal(err)
	}
	return shard.NewCoordinator(router)
}

// sweepItems is runs in wire form; the runs' platform and GPU count belong
// to the fleet that sweeps them.
func sweepItems(runs []core.Options) []serve.SweepItem {
	items := make([]serve.SweepItem, len(runs))
	for i, o := range runs {
		items[i] = serve.SweepItem{M: o.Shape.M, N: o.Shape.N, K: o.Shape.K, Prim: o.Prim.Short(), Imbalance: o.Imbalance}
	}
	return items
}

// Sharded mixed sweeps must be invisible: a mixed Coordinator sweep over
// in-process replicas at any shard count returns byte-identical results and
// the identical refined set as the unsharded MixedBatch, and every result
// carries its tier's fidelity label.
func TestSweepBatchMixedMatchesMixedBatchByteForByte(t *testing.T) {
	runs := quickMixedGrid()
	refRes, refRefined, err := engine.New(0, 0).MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRefined) == 0 || len(refRefined) == len(runs) {
		t.Fatalf("%d of %d runs refined; the grid must exercise both tiers", len(refRefined), len(runs))
	}
	inRefined := make(map[int]bool, len(refRefined))
	for _, gi := range refRefined {
		inRefined[gi] = true
	}
	for i, r := range refRes {
		want := core.FidelityAnalytic
		if inRefined[i] {
			want = core.FidelityDES
		}
		if r.Fidelity != want {
			t.Fatalf("run %d labeled %q, want %q", i, r.Fidelity, want)
		}
	}
	refJSON := marshalResults(t, refRes)
	for shards := 1; shards <= 4; shards++ {
		co := localCoordinator(t, runs[0].Plat, runs[0].NGPUs, shards)
		co.Spec.Fidelity = serve.FidelityMixed
		swept, err := co.Sweep(context.Background(), sweepItems(runs))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		res := make([]*core.Result, len(swept))
		var refined []int
		for i, r := range swept {
			res[i] = r.Result
			if r.Fidelity == serve.FidelityDES {
				refined = append(refined, i)
			}
		}
		if len(refined) != len(refRefined) {
			t.Fatalf("shards=%d: refined %v, want %v", shards, refined, refRefined)
		}
		for j := range refined {
			if refined[j] != refRefined[j] {
				t.Fatalf("shards=%d: refined %v, want %v", shards, refined, refRefined)
			}
		}
		if !bytes.Equal(marshalResults(t, res), refJSON) {
			t.Fatalf("shards=%d: sharded mixed sweep diverges from unsharded MixedBatch", shards)
		}
	}
}

// The refine tier must be byte-identical to a full-DES sweep restricted to
// the same candidates, run on a fresh engine with no mixed history — the
// acceptance criterion that mixed fidelity only skips work, never alters it.
func TestMixedRefineTierMatchesFullDESByteForByte(t *testing.T) {
	runs := quickMixedGrid()
	res, refined, err := engine.New(0, 0).MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	desRuns := make([]core.Options, len(refined))
	refinedRes := make([]*core.Result, len(refined))
	for j, gi := range refined {
		desRuns[j] = runs[gi]
		refinedRes[j] = res[gi]
	}
	full, err := engine.New(0, 0).Batch(context.Background(), desRuns)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalResults(t, refinedRes), marshalResults(t, full)) {
		t.Fatal("mixed refine tier diverges from a fresh full-DES batch of the same candidates")
	}
}

// A pre-stamped fidelity under a mixed batch is a contradiction and must be
// rejected. The sharded half of this check is
// TestCoordinatorMixedSweepRejectsPreLabeledItems (internal/shard).
func TestMixedBatchRejectsPreStampedFidelity(t *testing.T) {
	runs := quickMixedGrid()
	runs[3].Fidelity = core.FidelityDES
	if _, _, err := engine.New(0, 0).MixedBatch(context.Background(), runs, 0, 0); err == nil {
		t.Fatal("engine.MixedBatch accepted a pre-stamped run")
	}
}
