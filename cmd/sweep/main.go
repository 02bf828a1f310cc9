// Command sweep drives a grid sweep across a multi-host fleet of cmd/serve
// replicas: the distributed counterpart of an in-process engine.Batch. The
// grid (shapes x primitives) is partitioned by shape ownership, each
// shard's sub-grid is dispatched to its replica in chunks over POST /sweep,
// and the results stream back into deterministic global order. In an
// untuned sweep a replica that has run its own chunks takes the last
// chunks of the shard with the most left, so no replica idles while
// another works through a backlog; tuned chunks stay with their owner. A
// replica that dies mid-sweep does not fail the run: the chunks still sent
// to it re-dispatch through the failover ring under a bounded attempt
// budget.
//
// A fleet-wide health plane keeps the degraded path cheap: a replica that
// fails is marked dead and skipped by every later chunk (at most one probe
// timeout per -health-cooldown window, not one per chunk), chunks that fail
// partway keep their completed prefix and re-dispatch only the unanswered
// suffix, and a background /healthz prober re-admits a replica that
// restarts mid-sweep so it reclaims its owned shard.
//
// Example (three replicas on two hosts):
//
//	serve -addr host1:8081 -shard 0/3 &
//	serve -addr host1:8082 -shard 1/3 &
//	serve -addr host2:8081 -shard 2/3 &
//	sweep -replicas host1:8081,host1:8082,host2:8081 \
//	    -shapes "2048x8192x4096,4096x8192x8192" -prims AR,RS
//
// Untuned sweeps (the default) execute the per-wave baseline, whose merged
// results are byte-identical to single-process engine.Batch over the same
// grid — -verify checks exactly that against a local engine, which makes
// the command double as a cross-host determinism audit. With -tune each
// cell is first answered through the replica's tuned-shape cache
// (singleflight misses) and then executed with the tuned partition.
//
// -fidelity selects what executes on the replicas. "des" (the default) runs
// every cell through the deterministic event simulator; "analytic" evaluates
// every cell with the Algorithm 1 predictor over offline bandwidth curves —
// orders of magnitude cheaper, no event simulation; "mixed" sweeps the whole
// grid analytically, ranks cells per quantized shape bucket, and re-runs
// only the top -topk per bucket through the simulator — the fast-path sweep
// for large grids where only the winners need simulator-grade confirmation.
// Every result carries its fidelity label, and -verify understands all three
// modes: a des or analytic sweep must label every result with the requested
// fidelity and match a local replay at it, and an untuned mixed sweep must
// match a local engine.MixedBatch label for label and byte for byte, so the
// check covers which items the fleet refined, not only how each executed.
// A tuned mixed sweep must refine exactly -topk items of every rank bucket
// (all of a smaller one) and match a replay at its own labels.
//
// sweep also composes with cmd/route: pointing -replicas at a single
// router URL treats the router as a one-replica fleet, and the router's
// /sweep proxy fans the grid out across the real one.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	var (
		replicas  = flag.String("replicas", "", "comma-separated replica base URLs, in shard order (replica i runs -shard i/n); a cmd/route URL also works")
		shapesArg = flag.String("shapes", "", "comma-separated MxNxK grid, e.g. 2048x8192x4096,4096x8192x8192")
		primsArg  = flag.String("prims", "AR", "comma-separated primitives to cross with the shapes: AR, RS, A2A")
		imbalance = flag.Float64("imbalance", 0, "All-to-All max/mean load factor (0 = balanced)")
		tune      = flag.Bool("tune", false, "tune each cell through the replica's shape cache and execute the tuned partition (default: untuned per-wave baseline)")
		fidelity  = flag.String("fidelity", "des", "execution fidelity: des (event simulator), analytic (Algorithm 1 predictor, no simulation), or mixed (analytic grid + DES re-run of the top -topk per shape bucket)")
		topK      = flag.Int("topk", 0, "mixed fidelity only: DES confirmations per rank bucket (0 = engine default)")
		rankQ     = flag.Float64("rank-quantum", 0, "mixed fidelity only: log2 cell edge of the rank buckets (0 = engine default)")
		tenant    = flag.String("tenant", "", "optional tenant accounting label: executed items count into the tenant's swept_items on every replica's /stats (letters, digits, . _ -)")
		chunk     = flag.Int("chunk", 0, "items per dispatched chunk (0 = shard.DefaultChunkSize)")
		attempts  = flag.Int("attempts", 0, "re-dispatch budget per chunk across the failover ring (0 = fleet size); a budget beyond the fleet size does not hammer dead replicas back-to-back — wrap-around retries wait out -health-cooldown, so extra budget helps only when a replica recovers mid-dispatch")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-chunk replica timeout (covers a chunk of tunes + simulations)")
		deadline  = flag.Duration("deadline", 0, "whole-sweep deadline (0 = none); on expiry every in-flight replica chunk is aborted and the sweep exits non-zero, leaving the fleet healthy")
		cooldown  = flag.Duration("health-cooldown", shard.DefaultHealthCooldown, "how long a failed replica is skipped before one trial dispatch is allowed through (must be > 0: benching cannot be disabled)")
		probe     = flag.Duration("health-probe", 0, "background /healthz probe interval for mid-sweep dead-replica re-admission (0 = -health-cooldown)")
		rebalance = flag.Int("rebalance-after", shard.DefaultEvictAfter, "cooldown windows a replica must stay dead before its ring cells rebalance to the survivors (0 disables eviction)")
		verify    = flag.Bool("verify", false, "re-run the grid on a local engine and require byte-identical results (needs -platform/-gpus to match the fleet)")
		platName  = flag.String("platform", "4090", "fleet hardware profile, for -verify: 4090, a800, ascend, h100")
		gpus      = flag.Int("gpus", 4, "fleet parallel group size, for -verify")
		jsonOut   = flag.Bool("json", false, "emit the merged results as JSON instead of a table")
		quiet     = flag.Bool("quiet", false, "suppress per-chunk progress logging")
	)
	flag.Parse()

	if *replicas == "" || *shapesArg == "" {
		fatal(fmt.Errorf("-replicas and -shapes are required"))
	}
	if *cooldown <= 0 {
		// SetCooldown silently ignores non-positive values; fail loudly
		// instead of leaving the operator on the 15s default unawares.
		fatal(fmt.Errorf("-health-cooldown must be > 0 (got %v); replica benching cannot be disabled", *cooldown))
	}
	urls, err := shard.ParseReplicas(*replicas)
	fatal(err)
	shapes, err := serve.ParseShapes(*shapesArg)
	fatal(err)
	prims, err := serve.ParsePrimitives(*primsArg)
	fatal(err)

	httpClient := shard.NewHTTPClient(*timeout, shard.DefaultInflight)
	clients := make([]shard.Client, len(urls))
	for i, u := range urls {
		clients[i] = &shard.HTTPClient{Base: u, HTTP: httpClient}
	}
	router, err := shard.NewRouter(clients)
	fatal(err)
	router.Health().SetEvictAfter(*rebalance)
	co := shard.NewCoordinator(router)
	fatal(serve.ValidateTenant(*tenant))
	co.Spec = shard.SweepSpec{
		Tune:           *tune,
		Chunk:          *chunk,
		Attempts:       *attempts,
		TopK:           *topK,
		RankQuantum:    *rankQ,
		Tenant:         *tenant,
		HealthCooldown: *cooldown,
		ProbeInterval:  *probe,
	}
	if *fidelity != serve.FidelityDES {
		// The default stays off the wire ("" dispatch) so old fleets keep
		// answering old clients byte-identically.
		co.Spec.Fidelity = *fidelity
	}
	if !*quiet {
		co.OnChunk = func(cr shard.ChunkResult) {
			var how []string
			if cr.Origin != cr.Shard {
				how = append(how, fmt.Sprintf("taken by idle replica %d", cr.Origin))
			}
			if cr.Replica != cr.Origin {
				how = append(how, "re-dispatched")
			}
			suffix := ""
			if len(how) > 0 {
				suffix = " (" + strings.Join(how, ", ") + ")"
			}
			log.Printf("shard %d: chunk of %d items answered by replica %d%s",
				cr.Shard, len(cr.Indices), cr.Replica, suffix)
		}
	}

	// Shape-major grid order, matching a nested sweep loop.
	var items []serve.SweepItem
	for _, s := range shapes {
		for _, p := range prims {
			items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: p.Short(), Imbalance: *imbalance})
		}
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	start := time.Now()
	results, err := co.Sweep(ctx, items)
	fatal(err)
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(results))
	} else {
		fmt.Printf("%-20s %-14s %-16s %6s %9s %14s %14s %8s  %s\n",
			"shape", "primitive", "partition", "waves", "fidelity", "predicted", "measured", "source", "owner->replica")
		for _, res := range results {
			pred, src := "-", "-"
			if res.PredictedNs > 0 {
				pred = fmt.Sprint(time.Duration(res.PredictedNs))
			}
			if res.Source != "" {
				src = res.Source
			}
			fmt.Printf("%-20s %-14s %-16s %6d %9s %14s %14s %8s  %d->%d\n",
				res.Shape, res.Primitive, partitionString(res.Partition), res.Waves, res.Fidelity,
				pred, time.Duration(res.Result.Latency), src, res.Owner, res.Replica)
		}
	}
	perItem := elapsed / time.Duration(len(items))
	nDES, nAnalytic := 0, 0
	for _, res := range results {
		if res.Fidelity == serve.FidelityAnalytic {
			nAnalytic++
		} else {
			nDES++
		}
	}
	log.Printf("swept %d items (%d des, %d analytic) across %d replicas in %v (%v/item, %d re-dispatches, %d chunks taken by idle replicas, %d items salvaged from partial chunks)",
		len(items), nDES, nAnalytic, len(urls), elapsed.Round(time.Millisecond), perItem.Round(time.Microsecond), co.Redispatches(), co.Taken(), co.PartialSalvages())

	if *verify {
		fatal(verifyAgainstLocal(*platName, *gpus, co.Spec, items, results))
		log.Printf("verify: merged results byte-identical to a local replay over %d runs (%d des, %d analytic)", len(items), nDES, nAnalytic)
	}
}

// verifyAgainstLocal replays the grid on an in-process engine and compares
// the serialized results byte for byte — the same determinism check the
// shard package pins in tests, but across real hosts. What the replay runs
// follows the requested fidelity, not the labels the fleet reported:
//   - des or analytic: every result must carry that label, and the grid
//     replays at it;
//   - mixed, untuned: the grid replays through engine.MixedBatch with the
//     sweep's -topk and -rank-quantum, so a fleet that refined the wrong
//     items, or none, fails on its labels;
//   - mixed, tuned: ranking ran over tuned partitions no local engine
//     reproduces, so each item replays at the fidelity the fleet reported.
//     What the labels must add up to is still known: engine.RankTopK
//     refines exactly min(topk, cell size) items of every rank cell,
//     whatever the latencies, so a reply with any other count of DES
//     labels in a cell fails before the replay (see checkRefinedPerCell).
//     Which items of a cell won is not checked. Re-ranking at the reported
//     partitions would not be exact: a refined item goes through the shape
//     cache again for its DES run, so its reply carries that partition,
//     not necessarily the one it was ranked at.
//
// Tuned sweeps replay with the partitions the fleet chose, so the check
// still validates cross-host execution determinism.
func verifyAgainstLocal(platName string, gpus int, spec shard.SweepSpec, items []serve.SweepItem, results []shard.SweepResult) error {
	plat, err := hw.ByName(platName)
	if err != nil {
		return err
	}
	mixed := spec.Fidelity == serve.FidelityMixed
	if mixed && spec.Tune {
		if err := checkRefinedPerCell(spec, items, results); err != nil {
			return err
		}
	}
	want := cmp.Or(spec.Fidelity, serve.FidelityDES)
	runs := make([]core.Options, len(items))
	for i, it := range items {
		q, err := it.Query()
		if err != nil {
			return err
		}
		if !mixed && results[i].Fidelity != want {
			return fmt.Errorf("verify: item %d labeled %q, want the requested %q", i, results[i].Fidelity, want)
		}
		runs[i] = core.Options{Plat: plat, NGPUs: gpus, Shape: q.Shape, Prim: q.Prim, Imbalance: q.Imbalance}
		if !mixed || spec.Tune {
			runs[i].Fidelity = core.Fidelity(results[i].Fidelity)
		}
		if len(results[i].Partition) > 0 && results[i].Source != "" {
			// Tuned sweep: replay the fleet's partition choice.
			runs[i].Partition = append([]int(nil), results[i].Partition...)
		}
	}
	var local []*core.Result
	if mixed && !spec.Tune {
		local, _, err = engine.New(0, 0).MixedBatch(context.Background(), runs, spec.TopK, spec.RankQuantum)
	} else {
		local, err = engine.New(0, 0).Batch(context.Background(), runs)
	}
	if err != nil {
		return fmt.Errorf("local replay failed (do -platform/-gpus match the fleet?): %w", err)
	}
	remote := make([]*core.Result, len(results))
	for i, res := range results {
		if res.Fidelity != string(local[i].Fidelity) {
			return fmt.Errorf("verify: item %d labeled %q, local replay ran it at %q", i, res.Fidelity, local[i].Fidelity)
		}
		remote[i] = res.Result
	}
	remoteJSON, err := json.Marshal(remote)
	if err != nil {
		return err
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		return err
	}
	if string(remoteJSON) != string(localJSON) {
		return fmt.Errorf("verify: merged fleet results diverge from the local replay (platform/gpus mismatch, or non-deterministic replica)")
	}
	return nil
}

// checkRefinedPerCell holds a mixed reply to the refinement count the
// policy fixes in advance: engine.RankTopK confirms min(topk, cell size)
// items of every rank cell (gemm.Shape.LogCell at the rank quantum) on the
// simulator, whatever their latencies. Zero knobs select
// engine.DefaultTopK and engine.DefaultRankQuantum, as in the sweep.
func checkRefinedPerCell(spec shard.SweepSpec, items []serve.SweepItem, results []shard.SweepResult) error {
	k, quantum := spec.TopK, spec.RankQuantum
	if k <= 0 {
		k = engine.DefaultTopK
	}
	if quantum <= 0 {
		quantum = engine.DefaultRankQuantum
	}
	type cell struct{ qx, qy int64 }
	cells := make([]cell, len(items))
	size, des := map[cell]int{}, map[cell]int{}
	for i, it := range items {
		qx, qy := it.Shape().LogCell(quantum)
		cells[i] = cell{qx, qy}
		size[cells[i]]++
		if results[i].Fidelity == serve.FidelityDES {
			des[cells[i]]++
		}
	}
	// Report the cell of the first item in grid order that is off.
	for i, c := range cells {
		if want := min(k, size[c]); des[c] != want {
			return fmt.Errorf("verify: item %d's rank cell holds %d DES-refined items of %d, want %d (top-%d per cell)", i, des[c], size[c], want, k)
		}
	}
	return nil
}

// partitionString compacts a wave-group partition for the table: the
// untuned baseline is one wave per group, which would print as a wall of
// 1s for large shapes.
func partitionString(part []int) string {
	perWave := len(part) > 0
	for _, w := range part {
		if w != 1 {
			perWave = false
			break
		}
	}
	if perWave {
		return fmt.Sprintf("per-wave(%d)", len(part))
	}
	return fmt.Sprint(part)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}
