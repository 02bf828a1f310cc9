// Multihost: the distributed sweep deployment — a fleet of serve replicas
// over real HTTP, a sweep coordinator that partitions a grid by shape
// ownership and dispatches chunked sub-grids to the owning replicas (an
// idle replica takes chunks of a shard that still has a backlog), and the
// churn story: one replica is killed mid-sweep and the chunks still sent
// to it re-dispatch through the failover ring, with the merged results
// still byte-identical to a single-process engine.Batch over the same
// grid. The example finishes by mounting the shape-hash router in front of
// the fleet and posting the grid to its /sweep proxy — the topology
// cmd/serve x N + cmd/route + cmd/sweep deploys across real hosts.
//
//	go run ./examples/multihost
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tuner"
)

const (
	nShards = 3
	nGPUs   = 2
)

func main() {
	ctx := context.Background()
	plat := hw.RTX4090PCIe()

	// One offline bandwidth sampling for the whole fleet, like a
	// production rollout: every replica shares the immutable curve.
	curves := map[hw.Primitive]*stats.Curve{
		hw.AllReduce: tuner.SampleBandwidthCurve(plat, nGPUs, hw.AllReduce, nil),
	}

	grid := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 2048, N: 8192, K: 8192},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
		{M: 8192, N: 8192, K: 4096},
		{M: 8192, N: 8192, K: 8192},
	}

	// Start the fleet: each replica owns its slice of the shape plane. The
	// addresses are remembered so a killed replica can be restarted on the
	// same URL — the re-admission act below.
	part := shard.NewPartitioner(nShards)
	services := make([]*serve.Service, nShards)
	addrs := make([]string, nShards)
	servers := make([]*http.Server, nShards)
	clients := make([]shard.Client, nShards)
	listen := func(k int) {
		addr := addrs[k]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		addrs[k] = ln.Addr().String()
		srv := &http.Server{Handler: serve.Handler(services[k])}
		go func() {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				log.Fatal(err)
			}
		}()
		servers[k] = srv
	}
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
		services[k] = svc
		listen(k)
		clients[k] = &shard.HTTPClient{Base: "http://" + addrs[k]}
		fmt.Printf("replica %s on %s\n", assign, addrs[k])
	}

	router, err := shard.NewRouter(clients)
	if err != nil {
		log.Fatal(err)
	}
	// A short cooldown keeps the demo's re-admission act quick: probe
	// re-admission is gated on the same window as in-band trials (a
	// zombie replica cannot oscillate back in faster), so the default
	// 15s would make the recovery act below wait that long.
	router.Health().SetCooldown(300 * time.Millisecond)

	items := make([]serve.SweepItem, len(grid))
	runs := make([]core.Options, len(grid))
	for i, s := range grid {
		items[i] = serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"}
		runs[i] = core.Options{Plat: plat, NGPUs: nGPUs, Shape: s, Prim: hw.AllReduce}
	}

	// The single-process reference the distributed merge must reproduce.
	reference, err := engine.New(0, 0).Batch(ctx, runs)
	if err != nil {
		log.Fatal(err)
	}
	refJSON, err := json.Marshal(reference)
	if err != nil {
		log.Fatal(err)
	}

	// Distributed sweep with churn: kill one replica after it answers its
	// first chunk, mid-sweep. The chunks still sent to it re-dispatch
	// through the failover ring instead of failing the sweep, and idle
	// replicas may take the rest of its backlog.
	counts := make([]int, nShards)
	for _, it := range items {
		counts[part.Owner(it.Shape())]++
	}
	victim := 0
	for k, c := range counts {
		if c > counts[victim] {
			victim = k
		}
	}
	co := shard.NewCoordinator(router)
	co.Spec.Chunk = 1 // chunk per item, so the kill lands mid-sweep
	var kill sync.Once
	var mu sync.Mutex
	origin := make([]int, len(items)) // the replica each item's chunk was sent to
	co.OnChunk = func(cr shard.ChunkResult) {
		mu.Lock()
		for _, i := range cr.Indices {
			origin[i] = cr.Origin
		}
		mu.Unlock()
		if cr.Replica == victim {
			kill.Do(func() {
				_ = servers[victim].Close()
				fmt.Printf("\n*** replica %d killed mid-sweep (after its first chunk) ***\n\n", victim)
			})
		}
	}

	fmt.Printf("\ndistributed sweep over %d items (chunk size 1), killing replica %d mid-sweep:\n", len(items), victim)
	results, err := co.Sweep(ctx, items)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		marker := ""
		switch {
		case res.Replica != origin[i]:
			marker = "  <- re-dispatched via failover ring"
		case res.Replica != res.Owner:
			marker = "  <- taken by an idle replica"
		}
		fmt.Printf("  %-18s waves %2d  measured %9d ns  shard %d -> replica %d%s\n",
			res.Shape, res.Waves, res.Result.Latency, res.Owner, res.Replica, marker)
	}
	fmt.Printf("re-dispatched chunks: %d (budget: %d attempts per chunk); chunks taken by idle replicas: %d\n",
		co.Redispatches(), nShards, co.Taken())

	merged := make([]*core.Result, len(results))
	for i, res := range results {
		merged[i] = res.Result
	}
	gotJSON, err := json.Marshal(merged)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		log.Fatal("merged sweep diverged from single-process engine.Batch")
	}
	fmt.Printf("merge check: %d results byte-identical to single-process engine.Batch despite churn\n", len(results))

	// The health plane caps the damage: the first chunk sent to the dead
	// victim burns one probe timeout and marks it dead, and every later
	// one skips it instead of stalling. Whether the sweep sent it any
	// chunk after the kill depends on the schedule — idle replicas may
	// have taken all of its backlog — so a routed query for one of its
	// shapes finds it dead either way and fails over.
	var victimShape gemm.Shape
	for _, s := range grid {
		if part.Owner(s) == victim {
			victimShape = s
			break
		}
	}
	ans, err := router.Query(ctx, serve.Query{Shape: victimShape, Prim: hw.AllReduce})
	if err != nil {
		log.Fatal(err)
	}
	if ans.Replica == victim {
		log.Fatalf("query for %v answered by the dead replica %d", victimShape, victim)
	}
	fmt.Printf("\nquery for %v: owner %d -> replica %d; victim %d health: %v (dispatch attempts skipped while dead: %d)\n",
		victimShape, ans.Owner, ans.Replica, victim, router.Health().State(victim), router.Health().Skips())

	// Restart the victim on the same address and probe /healthz — the
	// router re-admits it and it serves its shard slice again. (During a
	// sweep, Coordinator.Sweep runs this probe on a cooldown
	// automatically, so a replica restarted mid-sweep reclaims its shard
	// before the sweep ends.)
	listen(victim)
	// Probe eligibility waits out the victim's cooldown (so a flapping
	// replica cannot be re-admitted more than once per window); poll
	// until the window opens and the probe brings it back.
	deadline := time.Now().Add(10 * time.Second)
	for router.Probe(ctx) != 1 {
		if time.Now().After(deadline) {
			log.Fatal("replica was not re-admitted within 10s of restarting")
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("replica %d restarted on %s and re-admitted via /healthz probe (health: %v, %d readmissions)\n",
		victim, addrs[victim], router.Health().State(victim), router.Health().Readmissions())

	// The router front-end proxies whole sweeps too: POST the grid to
	// /sweep and the router coordinates it across the recovered fleet.
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	frontSrv := &http.Server{Handler: router.Handler()}
	go func() {
		if err := frontSrv.Serve(front); !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	body, err := json.Marshal(serve.SweepRequest{SweepSpec: serve.SweepSpec{Tune: true}, Items: items[:2]})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post("http://"+front.Addr().String()+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var env serve.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		log.Fatalf("router /sweep replied %s: %s", resp.Status, env.Error.Message)
	}
	var rs shard.RoutedSweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if len(rs.Results) != 2 {
		log.Fatalf("router /sweep answered %d of 2 items", len(rs.Results))
	}
	fmt.Printf("\ntuned sweep through the router's /sweep proxy (replica %d re-admitted):\n", victim)
	for _, res := range rs.Results {
		fmt.Printf("  %-18s partition %v  predicted %d ns  source %-5s  shard %d -> replica %d\n",
			res.Shape, res.Partition, res.PredictedNs, res.Source, res.Owner, res.Replica)
		if res.Owner == victim && res.Replica != victim {
			log.Fatalf("re-admitted replica %d did not reclaim its owned item", victim)
		}
	}
	fmt.Printf("router re-dispatches during the proxied sweep: %d\n", rs.Redispatches)

	// Final act: warm-state persistence — the cmd/serve -snapshot story.
	// The re-admitted victim (which tuned its shard slice during the sweeps
	// above) saves its warm state, dies again, and a brand-new Service boots
	// from the snapshot on the same address: it re-admits warm, answers
	// byte-identically to its pre-restart self, and never re-tunes.
	queryURL := fmt.Sprintf("http://%s/query?m=%d&n=%d&k=%d&prim=AR", addrs[victim], grid[0].M, grid[0].N, grid[0].K)
	// Prime once so the captured reply is the steady-state cache hit (the
	// first answer for an untuned shape reports source "tuned").
	if _, err := getJSON(queryURL); err != nil {
		log.Fatal(err)
	}
	before, err := getJSON(queryURL)
	if err != nil {
		log.Fatal(err)
	}
	snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("multihost-warm-%d.json", os.Getpid()))
	defer os.Remove(snapPath)
	if err := services[victim].SaveSnapshotFile(snapPath); err != nil {
		log.Fatal(err)
	}
	_ = servers[victim].Close()
	restarted, err := serve.New(serve.Config{
		Plat:           plat,
		NGPUs:          nGPUs,
		CandidateLimit: 128,
		Owns:           shard.Assignment{Index: victim, Count: nShards}.Owns,
		Shard:          shard.Assignment{Index: victim, Count: nShards}.String(),
		Curves:         curves,
	})
	if err != nil {
		log.Fatal(err)
	}
	nRestored, err := restarted.LoadSnapshotFile(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	services[victim] = restarted
	listen(victim)
	after, err := getJSON(queryURL)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		log.Fatalf("snapshot-restored replica diverged from its pre-restart answer:\nbefore: %s\nafter:  %s", before, after)
	}
	st := restarted.Stats()
	if st.Tunes != 0 {
		log.Fatalf("snapshot-restored replica re-tuned %d times", st.Tunes)
	}
	fmt.Printf("\nsnapshot restart: replica %d rebooted from %d persisted entries, answered byte-identically with %d tunes (%d encoded fast-path hits)\n",
		victim, nRestored, st.Tunes, st.EncodedHits)

	_ = frontSrv.Close()
	for _, srv := range servers {
		_ = srv.Close()
	}
}

// getJSON fetches url and returns the raw body bytes, failing on any
// non-200 status — the byte-identity checks compare exact wire output.
func getJSON(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}
