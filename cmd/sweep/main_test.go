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
// des or analytic sweep must carry only the requested label.
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

	mixedSpec := shard.SweepSpec{Fidelity: serve.FidelityMixed}
	analyticSpec := shard.SweepSpec{Fidelity: serve.FidelityAnalytic}
	for _, tc := range []struct {
		name    string
		spec    shard.SweepSpec
		results []*core.Result
		ok      bool
	}{
		{"faithful mixed reply", mixedSpec, mixed, true},
		{"all-analytic reply to a mixed sweep", mixedSpec, analytic, false},
		{"mixed reply with a refined item left analytic", mixedSpec, swapped, false},
		{"des reply to a des sweep", shard.SweepSpec{}, des, true},
		{"mixed reply to a des sweep", shard.SweepSpec{}, mixed, false},
		{"analytic reply to an analytic sweep", analyticSpec, analytic, true},
		{"mixed reply to an analytic sweep", analyticSpec, mixed, false},
	} {
		err := verifyAgainstLocal("4090", 2, tc.spec, items, reply(tc.results))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: verified", tc.name)
		}
	}
}
