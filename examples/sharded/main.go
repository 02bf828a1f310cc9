// Sharded: the multi-replica deployment of the tuning service — a shape-hash
// router in front of N serve replicas, each owning a disjoint slice of the
// (log M·N, log K) plane. The example builds a three-replica fleet over real
// HTTP, pre-warms each replica with only its owned shapes, routes a tune
// query per shape through the router, kills a replica to show ring
// failover, and finally sweeps the shapes through a shard.Coordinator over
// the degraded fleet, verifying the merge is byte-identical to the
// unsharded engine.Batch results.
//
//	go run ./examples/sharded
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tuner"
)

const nShards = 3

func main() {
	ctx := context.Background()
	plat := hw.RTX4090PCIe()
	const nGPUs = 2

	// The offline stage runs once for the whole fleet: every replica gets
	// the same immutable bandwidth curve instead of re-sampling it.
	curves := map[hw.Primitive]*stats.Curve{
		hw.AllReduce: tuner.SampleBandwidthCurve(plat, nGPUs, hw.AllReduce, nil),
	}

	representative := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 2048, N: 8192, K: 8192},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
		{M: 8192, N: 8192, K: 4096},
		{M: 8192, N: 8192, K: 8192},
	}

	// Start the replicas. Every replica receives the SAME representative
	// list; ownership filtering inside Warm keeps the caches disjoint.
	part := shard.NewPartitioner(nShards)
	var servers []*http.Server
	var clients []shard.Client
	for k := 0; k < nShards; k++ {
		assign := shard.Assignment{Index: k, Count: nShards}
		svc, err := serve.New(serve.Config{
			Plat:           plat,
			NGPUs:          nGPUs,
			CandidateLimit: 128,
			Owns:           assign.Owns,
			Shard:          assign.String(),
			Curves:         curves,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := svc.Warm(ctx, []hw.Primitive{hw.AllReduce}, representative, 0); err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: serve.Handler(svc)}
		go func() {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
		servers = append(servers, srv)
		clients = append(clients, &shard.HTTPClient{Base: "http://" + ln.Addr().String()})
		fmt.Printf("replica %s on %s: warmed %d of %d representative shapes\n",
			assign, ln.Addr(), svc.Stats().ShapesCached, len(representative))
	}

	router, err := shard.NewRouter(clients)
	if err != nil {
		log.Fatal(err)
	}

	// Routed tune queries: every query lands on its owner, whose cache
	// was warmed for it.
	fmt.Printf("\nrouted tune queries over %d shapes:\n", len(representative))
	for _, s := range representative {
		ans, err := router.Query(ctx, serve.Query{Shape: s, Prim: hw.AllReduce})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18v -> shard %d  partition %-12v source %s\n",
			s, ans.Replica, ans.Partition, ans.Source)
	}
	st := router.Stats(ctx)
	fmt.Printf("merged fleet stats: %d hits, %d misses, %d shapes cached across %d replicas\n",
		st.Merged.Hits, st.Merged.Misses, st.Merged.ShapesCached, st.Replicas)

	// Failover: kill a replica and query a shape it owns. The router rings
	// to the next shard, which tunes the miss instead of refusing.
	victimShape := representative[0]
	victim := part.Owner(victimShape)
	_ = servers[victim].Close()
	ans, err := router.Query(ctx, serve.Query{Shape: victimShape, Prim: hw.AllReduce})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplica %d down: %v rerouted to replica %d (source %s, %d failovers recorded)\n",
		victim, victimShape, ans.Replica, ans.Source, router.Stats(ctx).Failovers)

	// The sharded sweep: a Coordinator splits the grid by ownership,
	// dispatches chunks over /sweep, fails the dead replica's chunks over
	// through the ring, and merges the results back into grid order —
	// byte-identical to one in-process engine.Batch.
	runs := make([]core.Options, len(representative))
	items := make([]serve.SweepItem, len(representative))
	for i, s := range representative {
		runs[i] = core.Options{Plat: plat, NGPUs: nGPUs, Shape: s, Prim: hw.AllReduce}
		items[i] = serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: hw.AllReduce.Short()}
	}
	unsharded, err := engine.New(0, 0).Batch(ctx, runs)
	if err != nil {
		log.Fatal(err)
	}
	co := shard.NewCoordinator(router)
	swept, err := co.Sweep(ctx, items)
	if err != nil {
		log.Fatal(err)
	}
	sharded := make([]*core.Result, len(swept))
	for i, res := range swept {
		sharded[i] = res.Result
	}
	want, err := json.Marshal(unsharded)
	if err != nil {
		log.Fatal(err)
	}
	got, err := json.Marshal(sharded)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		log.Fatal("sharded sweep diverged from unsharded engine.Batch")
	}
	fmt.Printf("\nsharded sweep with replica %d down: %d runs across %d shards merged byte-identical to engine.Batch (chunk re-dispatches: %d, taken by idle replicas: %d)\n",
		victim, len(runs), nShards, co.Redispatches(), co.Taken())

	for i, srv := range servers {
		if i != victim {
			_ = srv.Close()
		}
	}
}
