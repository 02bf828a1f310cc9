package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
)

// quickGridRuns builds the full quick Table 3 sweep: every (platform,
// primitive, shape) cell as one engine run.
func quickGridRuns() []core.Options {
	var runs []core.Options
	for _, grid := range expt.Table3Grids(true) {
		for _, shape := range grid.Shapes {
			runs = append(runs, core.Options{
				Plat:  grid.Plat,
				NGPUs: 2,
				Shape: shape,
				Prim:  grid.Prim,
			})
		}
	}
	return runs
}

// sweepLocal is the sharded engine.Batch: it sweeps runs through one
// Coordinator per platform, each over n in-process replicas (LocalClients)
// of that platform, and scatters the results back so results[i] answers
// runs[i], with Replica indexing the run's platform fleet. Runs must be
// untuned and share one GPU count per platform. fleets[p][k] is replica k
// of the p-th platform in order of first appearance. A failure names its
// item by its index among its platform's runs.
func sweepLocal(t *testing.T, n int, runs []core.Options) (results []SweepResult, fleets [][]*serve.Service, err error) {
	t.Helper()
	byPlat := map[string][]int{}
	var plats []string
	for i, o := range runs {
		if byPlat[o.Plat.Name] == nil {
			plats = append(plats, o.Plat.Name)
		}
		byPlat[o.Plat.Name] = append(byPlat[o.Plat.Name], i)
	}
	results = make([]SweepResult, len(runs))
	for _, name := range plats {
		idxs := byPlat[name]
		clients := make([]Client, n)
		services := make([]*serve.Service, n)
		for k := range clients {
			svc, err := serve.New(serve.Config{Plat: runs[idxs[0]].Plat, NGPUs: runs[idxs[0]].NGPUs})
			if err != nil {
				t.Fatal(err)
			}
			services[k], clients[k] = svc, &LocalClient{Svc: svc}
		}
		fleets = append(fleets, services)
		r, err := NewRouter(clients)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]serve.SweepItem, len(idxs))
		for j, gi := range idxs {
			o := runs[gi]
			items[j] = serve.SweepItem{M: o.Shape.M, N: o.Shape.N, K: o.Shape.K, Prim: o.Prim.Short(), Imbalance: o.Imbalance}
		}
		got, err := NewCoordinator(r).Sweep(context.Background(), items)
		if err != nil {
			return nil, fleets, err
		}
		for j, gi := range idxs {
			results[gi] = got[j]
		}
	}
	return results, fleets, nil
}

// The acceptance property of the sharded sweep: splitting the quick Table 3
// grid across any number of in-process replicas and merging the results
// reproduces the unsharded engine.Batch output byte for byte.
func TestSweepBatchMatchesUnshardedByteForByte(t *testing.T) {
	runs := quickGridRuns()
	reference, err := engine.New(0, 0).Batch(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(reference)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		swept, _, err := sweepLocal(t, n, runs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := make([]*core.Result, len(swept))
		for i, res := range swept {
			got[i] = res.Result
		}
		if len(got) != len(reference) {
			t.Fatalf("n=%d: %d results, want %d", n, len(got), len(reference))
		}
		if !reflect.DeepEqual(got, reference) {
			for i := range got {
				if !reflect.DeepEqual(got[i], reference[i]) {
					t.Fatalf("n=%d: result %d (%v) diverges from unsharded run", n, i, runs[i].Shape)
				}
			}
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("n=%d: serialized results differ from unsharded batch", n)
		}
	}
}

// Replica-local plan caches stay disjoint: each replica compiles each
// unique plan it executes exactly once. Late binding may run one run's
// duplicates on two replicas, so the count is per replica — the unique
// runs among the items that replica executed — not one per run fleet-wide.
func TestSweepBatchCompilesEachPlanOncePerShard(t *testing.T) {
	runs := quickGridRuns()
	// Duplicate the grid so plan caching has hits to find.
	runs = append(runs, quickGridRuns()...)
	const n = 3
	results, fleets, err := sweepLocal(t, n, runs)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		plat  string
		shape gemm.Shape
		prim  hw.Primitive
	}
	plats := map[string]int{} // platform name -> fleet index
	unique := make([][]map[run]bool, len(fleets))
	for p := range unique {
		unique[p] = make([]map[run]bool, n)
		for k := range unique[p] {
			unique[p][k] = map[run]bool{}
		}
	}
	for i, o := range runs {
		p, ok := plats[o.Plat.Name]
		if !ok {
			p = len(plats)
			plats[o.Plat.Name] = p
		}
		unique[p][results[i].Replica][run{o.Plat.Name, o.Shape, o.Prim}] = true
	}
	var misses uint64
	for k := 0; k < n; k++ {
		var used uint64
		for p, fleet := range fleets {
			e := fleet[k].Stats().Engine
			used += e.Hits + e.Misses
			misses += e.Misses
			if want := uint64(len(unique[p][k])); e.Misses != want {
				t.Errorf("platform %d replica %d compiled %d plans, want one per unique run it executed (%d)", p, k, e.Misses, want)
			}
		}
		if used == 0 {
			t.Errorf("idle shard %d: the sweep ran nothing on it", k)
		}
	}
	if misses < uint64(len(quickGridRuns())) {
		t.Fatalf("fleet compiled %d plans, fewer than the %d unique runs", misses, len(quickGridRuns()))
	}
}

// A failing run must surface the same grid index the unsharded path
// reports, no matter which shard it lands on.
func TestSweepBatchErrorKeepsGlobalIndex(t *testing.T) {
	runs := quickGridRuns()
	bad := 7
	runs[bad].Shape = gemm.Shape{M: 0, N: 8192, K: 4096}
	// The first platform's runs open the grid, so the bad run's index
	// among them is its grid index.
	for i := 0; i <= bad; i++ {
		if runs[i].Plat.Name != runs[0].Plat.Name {
			t.Fatalf("run %d is on %s; the bad run must be in the first platform's block", i, runs[i].Plat.Name)
		}
	}

	_, refErr := engine.New(0, 0).Batch(context.Background(), runs)
	if refErr == nil {
		t.Fatal("unsharded batch accepted the invalid run")
	}
	var re *engine.RunError
	if !errors.As(refErr, &re) || re.Index != bad {
		t.Fatalf("unsharded error %v, want RunError at %d", refErr, bad)
	}

	for n := 1; n <= 4; n++ {
		_, _, err := sweepLocal(t, n, runs)
		if err == nil {
			t.Fatalf("n=%d: sharded sweep accepted the invalid run", n)
		}
		if want := fmt.Sprintf("sweep item %d:", bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("n=%d: error %q does not name %q", n, err, want)
		}
	}
}

// localFleet builds n in-process replicas (no HTTP) behind a router.
func localFleet(t *testing.T, n int) *Router {
	t.Helper()
	clients := make([]Client, n)
	for k := 0; k < n; k++ {
		a := Assignment{Index: k, Count: n}
		svc, err := serve.New(serve.Config{
			Plat:           hw.RTX4090PCIe(),
			NGPUs:          2,
			CandidateLimit: 64,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         sharedCurves(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[k] = &LocalClient{Svc: svc}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A sweep of tune queries through the router must answer deterministically:
// replaying the same queries on a fresh identical fleet reproduces every
// answer, and each answer comes from the query's owner.
func TestSweepQueriesDeterministicAcrossFleets(t *testing.T) {
	var qs []serve.Query
	for _, s := range quickGridShapes() {
		qs = append(qs, serve.Query{Shape: s, Prim: hw.AllReduce})
	}
	sweep := func(r *Router) []Answer {
		answers := make([]Answer, len(qs))
		for i, q := range qs {
			ans, err := r.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			answers[i] = ans
		}
		return answers
	}
	first, second := sweep(localFleet(t, 3)), sweep(localFleet(t, 3))
	p := NewPartitioner(3)
	for i := range qs {
		if first[i].Owner != p.Owner(qs[i].Shape) || first[i].Replica != first[i].Owner {
			t.Fatalf("query %d answered by replica %d, owner %d", i, first[i].Replica, first[i].Owner)
		}
		if !reflect.DeepEqual(first[i].Answer, second[i].Answer) {
			t.Fatalf("query %d: answers differ across identical fleets:\n%+v\n%+v",
				i, first[i].Answer, second[i].Answer)
		}
		if first[i].Waves != first[i].Partition.TotalWaves() {
			t.Fatalf("query %d: malformed answer %+v", i, first[i])
		}
	}
}
