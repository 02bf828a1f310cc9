package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// reply wraps local results as a fleet's merged sweep reply.
func reply(results []*core.Result) []shard.SweepResult {
	out := make([]shard.SweepResult, len(results))
	for i, r := range results {
		out[i] = shard.SweepResult{SweepResult: serve.SweepResult{Fidelity: string(r.Fidelity), Result: r}}
	}
	return out
}

// -verify checks the fidelity policy the sweep asked for, not the labels the
// fleet reported: a mixed reply that refined nothing, or refined the wrong
// item, must fail even though every result replays at its own label, and a
// des or analytic sweep must carry only the requested label. A tuned mixed
// reply replays at its own labels, but must refine top-k of every rank
// cell: all-analytic, all-DES and short replies fail, a real fleet's
// passes.
func TestVerifyChecksRequestedFidelity(t *testing.T) {
	shapes, err := serve.ParseShapes("2048x8192x4096,4096x8192x4096,4096x8192x8192,8192x8192x4096")
	if err != nil {
		t.Fatal(err)
	}
	items := make([]serve.SweepItem, len(shapes))
	runs := make([]core.Options, len(shapes))
	analyticRuns := make([]core.Options, len(shapes))
	for i, s := range shapes {
		items[i] = serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"}
		runs[i] = core.Options{Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: s, Prim: hw.AllReduce}
		analyticRuns[i] = runs[i]
		analyticRuns[i].Fidelity = core.FidelityAnalytic
	}
	eng := engine.New(0, 0)
	mixed, refined, err := eng.MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) == 0 || len(refined) == len(runs) {
		t.Fatalf("%d of %d items refined; the grid must exercise both tiers", len(refined), len(runs))
	}
	analytic, err := eng.Batch(context.Background(), analyticRuns)
	if err != nil {
		t.Fatal(err)
	}
	des, err := eng.Batch(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	swapped := append([]*core.Result(nil), mixed...)
	swapped[refined[0]] = analytic[refined[0]]

	// A tuned mixed reply from a real fleet: a Coordinator over two
	// in-process replicas.
	tunedMixedSpec := shard.SweepSpec{Fidelity: serve.FidelityMixed, Tune: true}
	clients := make([]shard.Client, 2)
	for k := range clients {
		svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64})
		if err != nil {
			t.Fatal(err)
		}
		clients[k] = &shard.LocalClient{Svc: svc}
	}
	router, err := shard.NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	co := shard.NewCoordinator(router)
	co.Spec = tunedMixedSpec
	tunedMixed, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}

	mixedSpec := shard.SweepSpec{Fidelity: serve.FidelityMixed}
	analyticSpec := shard.SweepSpec{Fidelity: serve.FidelityAnalytic}
	for _, tc := range []struct {
		name    string
		spec    shard.SweepSpec
		results []shard.SweepResult
		ok      bool
	}{
		{"faithful mixed reply", mixedSpec, reply(mixed), true},
		{"all-analytic reply to a mixed sweep", mixedSpec, reply(analytic), false},
		{"mixed reply with a refined item left analytic", mixedSpec, reply(swapped), false},
		{"des reply to a des sweep", shard.SweepSpec{}, reply(des), true},
		{"mixed reply to a des sweep", shard.SweepSpec{}, reply(mixed), false},
		{"analytic reply to an analytic sweep", analyticSpec, reply(analytic), true},
		{"mixed reply to an analytic sweep", analyticSpec, reply(mixed), false},
		{"fleet reply to a tuned mixed sweep", tunedMixedSpec, tunedMixed, true},
		{"all-analytic reply to a tuned mixed sweep", tunedMixedSpec, reply(analytic), false},
		{"all-des reply to a tuned mixed sweep", tunedMixedSpec, reply(des), false},
		{"tuned mixed reply with a refined item left analytic", tunedMixedSpec, reply(swapped), false},
	} {
		err := verifyAgainstLocal("4090", 2, tc.spec, items, tc.results)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: verified", tc.name)
		}
	}
}
