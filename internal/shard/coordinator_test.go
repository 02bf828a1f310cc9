package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/sim"
)

// coordItems builds the sweep grid the coordinator tests drive: the quick
// Table 3 shapes as untuned AllReduce items, matching the testFleet
// configuration (RTX4090PCIe x2).
func coordItems() []serve.SweepItem {
	var items []serve.SweepItem
	for _, s := range quickGridShapes() {
		items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
	}
	return items
}

// coordReference runs the same grid through one in-process engine.Batch —
// the unsharded single-process path the distributed merge must reproduce.
func coordReference(t *testing.T, items []serve.SweepItem) []byte {
	t.Helper()
	runs := make([]core.Options, len(items))
	for i, it := range items {
		runs[i] = core.Options{Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: it.Shape(), Prim: hw.AllReduce}
	}
	ref, err := engine.New(0, 0).Batch(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return refJSON
}

// mergedJSON serializes the execution results of a coordinator sweep in
// global order, the byte-comparison form.
func mergedJSON(t *testing.T, results []SweepResult) []byte {
	t.Helper()
	merged := make([]*core.Result, len(results))
	for i, r := range results {
		merged[i] = r.Result
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The acceptance property of the distributed sweep: chunked dispatch to a
// remote HTTP fleet at any shard count merges back byte-identically to
// single-process engine.Batch over the same grid. On a healthy fleet every
// item is attributed to its ring owner and runs where its chunk was sent:
// at the owner, or at the idle replica that took the chunk.
func TestCoordinatorSweepMatchesEngineBatchByteForByte(t *testing.T) {
	items := coordItems()
	refJSON := coordReference(t, items)
	for n := 1; n <= 3; n++ {
		r, _, _ := testFleet(t, n)
		co := NewCoordinator(r)
		co.Spec.Chunk = 2 // several chunks per shard, exercising the chunk loop
		var mu sync.Mutex
		origin := make([]int, len(items))
		taken := 0
		co.OnChunk = func(cr ChunkResult) {
			mu.Lock()
			defer mu.Unlock()
			for _, i := range cr.Indices {
				origin[i] = cr.Origin
			}
			if cr.Origin != cr.Shard {
				taken++
			}
		}
		results, err := co.Sweep(context.Background(), items)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(results) != len(items) {
			t.Fatalf("n=%d: %d results for %d items", n, len(results), len(items))
		}
		for i, res := range results {
			if owner := r.Partitioner().Owner(items[i].Shape()); res.Owner != owner {
				t.Fatalf("n=%d: item %d attributed to owner %d, want the ring owner %d", n, i, res.Owner, owner)
			}
			if res.Replica != origin[i] {
				t.Fatalf("n=%d: item %d sent to replica %d but executed by %d on a healthy fleet",
					n, i, origin[i], res.Replica)
			}
			if origin[i] == res.Owner && res.Replica != res.Owner {
				t.Fatalf("n=%d: untaken item %d executed by replica %d, not its owner %d", n, i, res.Replica, res.Owner)
			}
		}
		if !bytes.Equal(mergedJSON(t, results), refJSON) {
			t.Fatalf("n=%d: merged sweep diverges from single-process engine.Batch", n)
		}
		if co.Redispatches() != 0 {
			t.Fatalf("n=%d: %d re-dispatches on a healthy fleet", n, co.Redispatches())
		}
		if int(co.Taken()) != taken {
			t.Fatalf("n=%d: Taken() = %d, but %d chunks ran off their owner", n, co.Taken(), taken)
		}
	}
}

// Churn survival, the tentpole property: a replica killed mid-sweep (after
// answering its first chunk) must not fail the sweep — each chunk still
// sent to it re-dispatches through the failover ring to the next replica,
// idle replicas may take the rest of its queue, and the merged results
// stay byte-identical to the unsharded path.
func TestCoordinatorSweepSurvivesChurnMidSweep(t *testing.T) {
	items := coordItems()
	refJSON := coordReference(t, items)
	const n = 3
	r, servers, _ := testFleet(t, n)

	// Pick the victim: a shard owning at least two items, so killing it
	// after its first chunk leaves work to re-dispatch.
	counts := make([]int, n)
	for _, it := range items {
		counts[r.Partitioner().Owner(it.Shape())]++
	}
	victim := -1
	for k, c := range counts {
		if c >= 2 {
			victim = k
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard owns two quick-grid shapes; extend the grid")
	}

	co := NewCoordinator(r)
	co.Spec.Chunk = 1 // one item per chunk: the kill lands between chunks
	var mu sync.Mutex
	var segs []ChunkResult
	var kill sync.Once
	co.OnChunk = func(cr ChunkResult) {
		mu.Lock()
		segs = append(segs, cr)
		mu.Unlock()
		if cr.Replica == victim {
			kill.Do(func() { servers[victim].Close() })
			return
		}
		// Hold the other workers until the victim's own worker has found
		// it dead, so the victim's next chunk goes out to the victim and
		// fails over rather than being taken.
		deadline := time.Now().Add(10 * time.Second)
		for r.Health().State(victim) == Healthy {
			if time.Now().After(deadline) {
				t.Error("victim not found dead within 10s of the kill")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatalf("sweep with replica %d killed mid-sweep: %v", victim, err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("merged results diverge from single-process engine.Batch after churn")
	}
	answered, failedOver, takenFromVictim, taken := 0, 0, 0, 0
	for _, cr := range segs {
		if cr.Origin != cr.Shard {
			taken++
		}
		switch {
		case cr.Replica == victim:
			answered++
		case cr.Replica != cr.Origin:
			if cr.Shard != victim || cr.Origin != victim || cr.Replica != (victim+1)%n {
				t.Fatalf("chunk %v of shard %d sent to %d failed over to %d, want only the victim's chunks, to next-in-ring %d",
					cr.Indices, cr.Shard, cr.Origin, cr.Replica, (victim+1)%n)
			}
			failedOver++
		case cr.Shard == victim:
			takenFromVictim++
		}
	}
	if answered != 1 {
		t.Fatalf("victim answered %d chunks, want only the one before the kill", answered)
	}
	if failedOver == 0 {
		t.Fatal("victim's next chunk was not re-dispatched")
	}
	if got := int(co.Redispatches()); got != failedOver {
		t.Fatalf("%d re-dispatches, want the %d chunks that failed over", got, failedOver)
	}
	if failedOver+takenFromVictim != counts[victim]-1 {
		t.Fatalf("%d victim chunks failed over and %d taken, want the %d after its first", failedOver, takenFromVictim, counts[victim]-1)
	}
	if int(co.Taken()) != taken {
		t.Fatalf("Taken() = %d, want the %d chunks sent off their owner", co.Taken(), taken)
	}
	if st := r.Stats(context.Background()); st.Failovers != co.Redispatches() {
		t.Fatalf("router stats recorded %d failovers, want the %d re-dispatches", st.Failovers, co.Redispatches())
	}
}

// The PR 5 extension of the churn story: kill -> failover (as above) ->
// restart -> mid-sweep re-admission. A replica that comes back while the
// sweep is still running must be re-admitted by the background /healthz
// prober and reclaim its owned shard before the sweep ends, with the merge
// still byte-identical to single-process engine.Batch.
func TestCoordinatorSweepReadmitsRestartedReplicaMidSweep(t *testing.T) {
	const n = 3
	items := coordItems()
	part := NewPartitioner(n)
	counts := make([]int, n)
	for _, it := range items {
		counts[part.Owner(it.Shape())]++
	}
	victim := 0
	for k, c := range counts {
		if c > counts[victim] {
			victim = k
		}
	}
	if counts[victim] < 2 {
		t.Fatal("no shard owns two quick-grid shapes; extend the grid")
	}
	// Guarantee work after the re-admission: the story takes three of
	// the victim's chunks (kill, failover, reclaim), and the tail repeats
	// a victim-owned shape so its queue holds more.
	var tail serve.SweepItem
	for _, it := range items {
		if part.Owner(it.Shape()) == victim {
			tail = it
			break
		}
	}
	for i := 0; i < 4; i++ {
		items = append(items, tail)
	}
	refJSON := coordReference(t, items)

	// A restartable fleet: each replica listens on an address the test
	// owns, so the victim can be brought back on the same URL.
	services := make([]*serve.Service, n)
	addrs := make([]string, n)
	srvs := make([]*http.Server, n)
	listen := func(k, retries int) error {
		addr := addrs[k]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var ln net.Listener
		var err error
		for try := 0; ; try++ {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if try >= retries {
				return err
			}
			time.Sleep(20 * time.Millisecond)
		}
		addrs[k] = ln.Addr().String()
		srv := &http.Server{Handler: serve.Handler(services[k])}
		srvs[k] = srv
		go func() { _ = srv.Serve(ln) }()
		return nil
	}
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
		services[k] = svc
		if err := listen(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, srv := range srvs {
			if srv != nil {
				_ = srv.Close()
			}
		}
	})
	httpClient := &http.Client{Timeout: 5 * time.Second}
	clients := make([]Client, n)
	for k := 0; k < n; k++ {
		clients[k] = &HTTPClient{Base: "http://" + addrs[k], HTTP: httpClient}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	r.Health().SetCooldown(200 * time.Millisecond)

	co := NewCoordinator(r)
	co.Spec.Chunk = 1                             // the kill and the restart land between chunks
	co.Spec.ProbeInterval = 10 * time.Millisecond // re-admit fast enough to matter mid-sweep

	// The victim's own worker sends every chunk of the story to the
	// victim: the first is answered and kills it, the next fails over and
	// restarts it, and the one after that is the reclaim. The other
	// workers are held at their first chunk until the reclaim, so they
	// cannot take the victim's queue while it is down.
	var kill, restart, reclaim sync.Once
	readmitted := make(chan struct{})
	reclaimed := make(chan struct{})
	reclaimedAt := -1
	co.OnChunk = func(cr ChunkResult) {
		if cr.Origin != victim {
			select {
			case <-reclaimed:
			case <-time.After(20 * time.Second):
				t.Error("victim reclaimed no chunk within 20s")
			}
			return
		}
		if cr.Replica == victim {
			select {
			case <-readmitted:
				reclaim.Do(func() {
					reclaimedAt = cr.Indices[0]
					close(reclaimed)
				})
			default:
				kill.Do(func() { _ = srvs[victim].Close() })
			}
			return
		}
		// Failover observed: bring the victim back on its old address and
		// block this worker until the prober re-admits it, so its next
		// chunk runs against a healthy owner.
		restart.Do(func() {
			if err := listen(victim, 50); err != nil {
				t.Errorf("restarting victim: %v", err)
				return
			}
			// Drop any pooled connections to the dead incarnation so the
			// next dispatch dials the restarted one.
			httpClient.CloseIdleConnections()
			deadline := time.Now().Add(10 * time.Second)
			for r.Health().State(victim) != Healthy {
				if time.Now().After(deadline) {
					t.Error("victim not re-admitted within 10s of restarting")
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			close(readmitted)
		})
	}

	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatalf("sweep across kill+restart of replica %d: %v", victim, err)
	}
	select {
	case <-reclaimed:
	default:
		t.Fatal("sweep finished without the victim being killed, failed over, re-admitted, and reclaiming a chunk")
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("merged results diverge from single-process engine.Batch across kill+restart")
	}
	// The recovered victim ran the chunk its worker sent after the
	// re-admission wait.
	if res := results[reclaimedAt]; res.Owner != victim || res.Replica != victim {
		t.Fatalf("item %d after re-admission: owner %d, replica %d, want the re-admitted owner %d both",
			reclaimedAt, res.Owner, res.Replica, victim)
	}
	if co.Redispatches() == 0 {
		t.Fatal("no chunk left the victim while it was down")
	}
	st := r.Stats(context.Background())
	if st.Readmissions == 0 {
		t.Fatal("router stats recorded no re-admission")
	}
	if st.PerShard[victim].Health != "healthy" {
		t.Fatalf("victim health = %q after re-admission, want healthy", st.PerShard[victim].Health)
	}
}

// coordMixedReference runs the grid through one in-process engine.MixedBatch
// at the default knobs — the unsharded single-process mixed sweep the
// fleet-wide orchestration must reproduce byte for byte. Returns the
// serialized results plus the refined (DES-confirmed) index set.
func coordMixedReference(t *testing.T, items []serve.SweepItem) ([]byte, []int) {
	t.Helper()
	runs := make([]core.Options, len(items))
	for i, it := range items {
		runs[i] = core.Options{Plat: hw.RTX4090PCIe(), NGPUs: 2, Shape: it.Shape(), Prim: hw.AllReduce}
	}
	ref, refined, err := engine.New(0, 0).MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return refJSON, refined
}

// checkMixedLabels asserts every result of a mixed sweep carries the
// fidelity tier the reference ranking assigned it: DES on the refined
// indices, analytic everywhere else — on both the wire envelope and the
// embedded execution result.
func checkMixedLabels(t *testing.T, results []SweepResult, refined []int) {
	t.Helper()
	isRefined := make(map[int]bool, len(refined))
	for _, gi := range refined {
		isRefined[gi] = true
	}
	for i, res := range results {
		want := serve.FidelityAnalytic
		if isRefined[i] {
			want = serve.FidelityDES
		}
		if res.Fidelity != want || string(res.Result.Fidelity) != want {
			t.Fatalf("item %d labeled (%q, %q), want %q", i, res.Fidelity, res.Result.Fidelity, want)
		}
	}
	if len(refined) == 0 || len(refined) == len(results) {
		t.Fatalf("%d of %d items refined; the mixed grid must exercise both tiers", len(refined), len(results))
	}
}

// The mixed-fidelity acceptance property at the fleet level: a coordinator
// sweeping at FidelityMixed merges byte-identically to single-process
// engine.MixedBatch at every shard count, every result carries its tier's
// label, and the replicas' /stats split the item counts by fidelity.
func TestCoordinatorMixedSweepMatchesMixedBatchByteForByte(t *testing.T) {
	items := coordItems()
	refJSON, refined := coordMixedReference(t, items)
	for n := 1; n <= 3; n++ {
		r, _, _ := testFleet(t, n)
		co := NewCoordinator(r)
		co.Spec.Chunk = 2
		co.Spec.Fidelity = serve.FidelityMixed
		results, err := co.Sweep(context.Background(), items)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(mergedJSON(t, results), refJSON) {
			t.Fatalf("n=%d: mixed sweep diverges from single-process engine.MixedBatch", n)
		}
		checkMixedLabels(t, results, refined)
		st := r.Stats(context.Background())
		if got, want := int(st.Merged.SweptItemsAnalytic), len(items); got != want {
			t.Fatalf("n=%d: merged swept_items_analytic = %d, want %d", n, got, want)
		}
		if got, want := int(st.Merged.SweptItemsDES), len(refined); got != want {
			t.Fatalf("n=%d: merged swept_items_des = %d, want %d", n, got, want)
		}
	}
}

// The DES refine tier of a mixed sweep must be byte-identical to a full-DES
// sweep of the same fleet restricted to the refined candidates — mixed mode
// changes which items get simulator-grade answers, never the answers.
func TestCoordinatorMixedRefineTierMatchesFullDES(t *testing.T) {
	items := coordItems()
	_, refined := coordMixedReference(t, items)
	r, _, _ := testFleet(t, 2)
	co := NewCoordinator(r)
	co.Spec.Fidelity = serve.FidelityMixed
	mixed, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	desItems := make([]serve.SweepItem, len(refined))
	for j, gi := range refined {
		desItems[j] = items[gi]
	}
	des := NewCoordinator(r)
	des.Spec.Fidelity = serve.FidelityDES
	full, err := des.Sweep(context.Background(), desItems)
	if err != nil {
		t.Fatal(err)
	}
	refinedMixed := make([]SweepResult, len(refined))
	for j, gi := range refined {
		refinedMixed[j] = mixed[gi]
	}
	if !bytes.Equal(mergedJSON(t, refinedMixed), mergedJSON(t, full)) {
		t.Fatal("mixed refine tier diverges from a full-DES sweep of the same candidates")
	}
}

// A pre-labeled item under a mixed sweep is a contradiction (the policy
// assigns tiers itself) and must be rejected deterministically with the
// item's global index, burning no failover budget.
func TestCoordinatorMixedSweepRejectsPreLabeledItems(t *testing.T) {
	items := coordItems()
	items[2].Fidelity = serve.FidelityDES
	r, _, _ := testFleet(t, 2)
	co := NewCoordinator(r)
	co.Spec.Fidelity = serve.FidelityMixed
	_, err := co.Sweep(context.Background(), items)
	if err == nil {
		t.Fatal("pre-labeled item accepted under a mixed sweep")
	}
	if want := "sweep item 2:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if retryable(err) {
		t.Fatalf("deterministic mixed rejection classified retryable: %v", err)
	}
	if co.Redispatches() != 0 {
		t.Fatal("mixed rejection burned failover retries")
	}
	bad := NewCoordinator(r)
	bad.Spec.Fidelity = "nope"
	if _, err := bad.Sweep(context.Background(), coordItems()); err == nil {
		t.Fatal("unknown coordinator fidelity accepted")
	} else if retryable(err) {
		t.Fatalf("unknown-fidelity failure classified retryable: %v", err)
	}
}

// A mixed sweep hands every unrefined result over as soon as the ranking
// resolves, before the first DES chunk is dispatched, and emits each
// refinement as its chunk completes rather than at the end of the tier.
// sweep-stream's first_result_ms rests on both; a policy that buffered
// either tier would fail here.
func TestCoordinatorMixedSweepEmissionTiming(t *testing.T) {
	items := coordItems()
	index := make(map[gemm.Shape]int, len(items))
	for i, it := range items {
		index[it.Shape()] = i
	}
	// event is one dispatched chunk (replica >= 0) or one emission
	// (replica -1), in the order they happened.
	type event struct {
		replica int
		fid     string
		idxs    []int
	}
	var mu sync.Mutex
	var events []event
	clients := make([]Client, 2)
	for k := range clients {
		clients[k] = &stubClient{sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			ev := event{replica: k, fid: req.Items[0].Fidelity}
			res := make([]serve.SweepResult, len(req.Items))
			for j, it := range req.Items {
				ev.idxs = append(ev.idxs, index[it.Shape()])
				res[j] = serve.SweepResult{Fidelity: it.Fidelity, Result: &core.Result{Fidelity: core.Fidelity(it.Fidelity), Latency: sim.Time(it.M + it.K)}}
			}
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			return res, nil
		}}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	co.Spec.Chunk = 1
	co.Spec.Fidelity = serve.FidelityMixed
	err = co.Stream(context.Background(), items, func(i int, res SweepResult) error {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, event{replica: -1, fid: res.Fidelity, idxs: []int{i}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	firstDES := -1
	desChunks := make([]int, len(clients))
	for p, ev := range events {
		if ev.replica >= 0 && ev.fid == serve.FidelityDES {
			if firstDES < 0 {
				firstDES = p
			}
			desChunks[ev.replica]++
		}
	}
	if firstDES < 0 {
		t.Fatal("no DES chunk dispatched")
	}
	if max(desChunks[0], desChunks[1]) < 2 {
		t.Fatalf("DES chunks per replica %v; a replica needs two to show per-chunk emission", desChunks)
	}
	emittedAt := make(map[int]int, len(items))
	for p, ev := range events {
		if ev.replica >= 0 {
			continue
		}
		i := ev.idxs[0]
		if _, twice := emittedAt[i]; twice {
			t.Fatalf("item %d emitted twice", i)
		}
		emittedAt[i] = p
		if ev.fid == serve.FidelityAnalytic && p > firstDES {
			t.Fatalf("unrefined item %d emitted at event %d, after the first DES chunk left at %d", i, p, firstDES)
		}
	}
	if len(emittedAt) != len(items) {
		t.Fatalf("%d of %d items emitted", len(emittedAt), len(items))
	}
	for p, ev := range events {
		if ev.replica < 0 || ev.fid != serve.FidelityDES {
			continue
		}
		// The chunk's results are emitted before its replica takes
		// the next DES chunk.
		next := len(events)
		for q := p + 1; q < len(events); q++ {
			if events[q].replica == ev.replica && events[q].fid == serve.FidelityDES {
				next = q
				break
			}
		}
		for _, i := range ev.idxs {
			if at := emittedAt[i]; at < p || at > next || events[at].fid != serve.FidelityDES {
				t.Fatalf("refined item %d emitted at event %d (%q), want a DES emission between its chunk's dispatch (%d) and replica %d's next DES chunk (%d)",
					i, at, events[at].fid, p, ev.replica, next)
			}
		}
	}
}

// Churn survival for the mixed pipeline: a replica killed after its first
// analytic chunk must not fail the sweep or scramble the tiers — both
// phases re-dispatch through the failover ring, the merge stays
// byte-identical to single-process engine.MixedBatch, and every result
// keeps its tier's fidelity label.
func TestCoordinatorMixedSweepSurvivesChurnMidSweep(t *testing.T) {
	items := coordItems()
	refJSON, refined := coordMixedReference(t, items)
	const n = 3
	r, servers, _ := testFleet(t, n)

	counts := make([]int, n)
	for _, it := range items {
		counts[r.Partitioner().Owner(it.Shape())]++
	}
	victim := -1
	for k, c := range counts {
		if c >= 2 {
			victim = k
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard owns two quick-grid shapes; extend the grid")
	}

	co := NewCoordinator(r)
	co.Spec.Chunk = 1 // one item per chunk: the kill lands between chunks
	co.Spec.Fidelity = serve.FidelityMixed
	var kill sync.Once
	co.OnChunk = func(cr ChunkResult) {
		if cr.Shard == victim {
			kill.Do(func() { servers[victim].Close() })
		}
	}
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatalf("mixed sweep with replica %d killed mid-sweep: %v", victim, err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("merged mixed results diverge from single-process engine.MixedBatch after churn")
	}
	checkMixedLabels(t, results, refined)
	if co.Redispatches() == 0 {
		t.Fatal("victim's remaining chunks were not re-dispatched")
	}
	redirected := 0
	for _, res := range results {
		if res.Owner == victim && res.Replica != victim {
			redirected++
		}
	}
	if redirected == 0 {
		t.Fatal("no item attributed to a failover replica after the kill")
	}
}

// When every replica is gone the sweep must fail with the bounded budget
// exhausted — not hang — and name the first unreachable item globally.
func TestCoordinatorSweepExhaustsBudget(t *testing.T) {
	r, servers, _ := testFleet(t, 2)
	for _, srv := range servers {
		srv.Close()
	}
	co := NewCoordinator(r)
	_, err := co.Sweep(context.Background(), coordItems())
	if err == nil {
		t.Fatal("sweep over a dead fleet succeeded")
	}
	if !strings.Contains(err.Error(), "re-dispatch budget") {
		t.Fatalf("error %q does not name the exhausted budget", err)
	}
	if !strings.Contains(err.Error(), "sweep item ") {
		t.Fatalf("error %q does not attribute a global item", err)
	}
}

// A deterministic rejection must fail the sweep immediately with the
// failing item's global index — re-dispatching it would only repeat the
// rejection on every replica.
func TestCoordinatorSweepBadItemKeepsGlobalIndex(t *testing.T) {
	items := coordItems()
	bad := 3
	items[bad].M = 0
	r, _, _ := testFleet(t, 2)
	co := NewCoordinator(r)
	co.Spec.Chunk = 2
	_, err := co.Sweep(context.Background(), items)
	if err == nil {
		t.Fatal("invalid item accepted")
	}
	if want := "sweep item 3:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if retryable(err) {
		t.Fatalf("bad-item failure classified retryable: %v", err)
	}
	if co.Redispatches() != 0 || r.Stats(context.Background()).Failovers != 0 {
		t.Fatal("deterministic rejection burned failover retries")
	}
}

// The package default HTTP client must be bounded: with http.DefaultClient
// (no timeout) a black-holed replica stalled Router.Query's failover loop
// forever.
func TestDefaultHTTPClientIsBounded(t *testing.T) {
	if defaultClient.Timeout <= 0 {
		t.Fatal("package default HTTP client has no timeout")
	}
	if defaultClient.Timeout != DefaultTimeout {
		t.Fatalf("default client timeout %v, want DefaultTimeout %v", defaultClient.Timeout, DefaultTimeout)
	}
}

// A black-holed replica (accepts the request, never replies) must cost one
// bounded timeout and fail over, not hang the router.
func TestRouterFailsOverBlackHoledReplica(t *testing.T) {
	release := make(chan struct{})
	blackhole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // never replies until teardown
	}))
	defer blackhole.Close()
	defer close(release) // LIFO: unblock the handler before Close waits on it

	healthy, err := serve.New(serve.Config{
		Plat:           hw.RTX4090PCIe(),
		NGPUs:          2,
		CandidateLimit: 64,
		Curves:         sharedCurves(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	healthySrv := httptest.NewServer(serve.Handler(healthy))
	defer healthySrv.Close()

	// A short-timeout client stands in for the bounded default (60s would
	// stall the test suite, not the code under test).
	hc := &http.Client{Timeout: 200 * time.Millisecond}
	shape := gemm.Shape{M: 2048, N: 8192, K: 4096}
	clients := make([]Client, 2)
	owner := NewPartitioner(2).Owner(shape)
	clients[owner] = &HTTPClient{Base: blackhole.URL, HTTP: hc}
	clients[1-owner] = &HTTPClient{Base: healthySrv.URL, HTTP: hc}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ans, err := r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce})
	if err != nil {
		t.Fatalf("query with black-holed owner: %v", err)
	}
	if ans.Replica == owner {
		t.Fatal("answer attributed to the black-holed replica")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failover took %v; timeout did not bound the black hole", elapsed)
	}
	if r.Stats(context.Background()).Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", r.Stats(context.Background()).Failovers)
	}
}

// Replica-list parsing: normalization plus the duplicate check. A URL
// listed twice would silently occupy two shard slots and skew the ownership
// plane, so it must be rejected at startup.
func TestParseReplicas(t *testing.T) {
	urls, err := ParseReplicas(" host1:8080 , http://host2:8080/ ,https://host3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://host1:8080", "http://host2:8080", "https://host3"}
	if len(urls) != len(want) {
		t.Fatalf("parsed %v, want %v", urls, want)
	}
	for i := range want {
		if urls[i] != want[i] {
			t.Fatalf("url %d = %q, want %q", i, urls[i], want[i])
		}
	}
	for _, bad := range []string{
		"",
		"  ",
		"host1,",
		"host1,,host2",
		"host1:8080,host1:8080",
		"http://host1:8080,host1:8080/", // duplicates after normalization
	} {
		if _, err := ParseReplicas(bad); err == nil {
			t.Errorf("ParseReplicas(%q) accepted", bad)
		}
	}
}

// The router front-end must proxy /sweep across the fleet: a client posting
// a grid to the router gets the merged, attributed results — so a sweep
// driver pointed at a router as a one-replica "fleet" transparently fans
// out over the real one.
func TestRouterHandlerProxiesSweep(t *testing.T) {
	items := coordItems()
	refJSON := coordReference(t, items)
	r, _, _ := testFleet(t, 2)
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	body, err := json.Marshal(serve.SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rs RoutedSweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(rs.Results), len(items))
	}
	if !bytes.Equal(mergedJSON(t, rs.Results), refJSON) {
		t.Fatal("proxied sweep diverges from single-process engine.Batch")
	}
	for i, res := range rs.Results {
		if res.Owner != r.Partitioner().Owner(items[i].Shape()) {
			t.Fatalf("item %d attributed to owner %d, want %d", i, res.Owner, r.Partitioner().Owner(items[i].Shape()))
		}
	}

	// And the full composition: an outer coordinator treating the router
	// as a one-replica fleet still produces the identical merge.
	outer, err := NewRouter([]Client{&HTTPClient{Base: front.URL}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := NewCoordinator(outer).Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("sweep through router-as-replica diverges from single-process engine.Batch")
	}

	// Failure attribution must survive the proxy hop too: the router's
	// error reply carries the failing item's index into the posted grid,
	// so the outer coordinator names the right global item.
	badItems := append([]serve.SweepItem(nil), items...)
	bad := 4
	badItems[bad].Prim = "NOPE"
	if _, err := NewCoordinator(outer).Sweep(context.Background(), badItems); err == nil {
		t.Fatal("bad item accepted through the router proxy")
	} else if want := fmt.Sprintf("sweep item %d:", bad); !strings.Contains(err.Error(), want) {
		t.Fatalf("proxied error %q does not name %q", err, want)
	}

	// The router's own failure envelope: a plain (v1) POST answers 422
	// with the bad item's index and retryable false, and a v2 POST ends in
	// an error frame carrying the same index and flag.
	badBody, err := json.Marshal(serve.SweepRequest{Items: badItems})
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.Post(front.URL+"/sweep", "application/json", bytes.NewReader(badBody))
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("v1 bad-item status = %d, want 422", badResp.StatusCode)
	}
	var env serve.ErrorEnvelope
	if err := json.NewDecoder(badResp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Index == nil || *env.Error.Index != bad || env.Error.Retryable {
		t.Fatalf("v1 envelope %+v, want index %d and retryable false", env.Error, bad)
	}
	frames := postStream(t, front.URL, true, serve.SweepRequest{Items: badItems})
	last := frames[len(frames)-1]
	if last.Frame != serve.FrameError || last.Error == nil || last.Error.Index == nil ||
		*last.Error.Index != bad || last.Error.Retryable {
		t.Fatalf("v2 terminal frame %+v, want an error frame with index %d and retryable false", last, bad)
	}
}
