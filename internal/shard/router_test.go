package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// testCurve samples the offline bandwidth curve once per test binary; every
// replica shares it (the new Config.Curves path), which both speeds the
// tests up and mirrors a production sharded rollout.
var testCurve *stats.Curve

func sharedCurves(t testing.TB) map[hw.Primitive]*stats.Curve {
	t.Helper()
	if testCurve == nil {
		testCurve = tuner.SampleBandwidthCurve(hw.RTX4090PCIe(), 2, hw.AllReduce, nil)
	}
	return map[hw.Primitive]*stats.Curve{hw.AllReduce: testCurve}
}

// testFleet builds n in-process replicas behind httptest servers, each
// owning its slice of the shape plane, and a router over their URLs.
func testFleet(t *testing.T, n int) (*Router, []*httptest.Server, []*serve.Service) {
	t.Helper()
	part := NewPartitioner(n)
	servers := make([]*httptest.Server, n)
	services := make([]*serve.Service, n)
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
		services[k] = svc
		servers[k] = httptest.NewServer(serve.Handler(svc))
		t.Cleanup(servers[k].Close)
		clients[k] = &HTTPClient{Base: servers[k].URL}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partitioner() != part {
		t.Fatalf("router partitioner %+v, want %+v", r.Partitioner(), part)
	}
	return r, servers, services
}

// Concurrent routed queries keep their connections: callers put at most
// that many requests in flight, and the package default client's idle
// pool holds a connection for each. Once a first round has dialled them,
// a second round of concurrent queries makes no replica accept more than
// callers new connections (in practice none). On http.DefaultTransport,
// which keeps two idle connections per host, each reply past the second
// in flight closed its connection, and the replicas accepted one for
// nearly every query of every round.
func TestConcurrentRoutedQueriesReuseConnections(t *testing.T) {
	const callers, perCaller = 8, 150
	conns := make([]atomic.Int64, 2)
	clients := make([]Client, len(conns))
	for k := range clients {
		a := Assignment{Index: k, Count: len(conns)}
		svc, err := serve.New(serve.Config{
			Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Owns: a.Owns, Shard: a.String(), Curves: sharedCurves(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewUnstartedServer(serve.Handler(svc))
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns[k].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		clients[k] = &HTTPClient{Base: srv.URL}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range perCaller {
					q := serve.Query{Shape: routerShapes[(c+i)%len(routerShapes)], Prim: hw.AllReduce}
					if _, err := r.Query(context.Background(), q); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	round()
	first := []int64{conns[0].Load(), conns[1].Load()}
	round()
	for k := range conns {
		n := conns[k].Load() - first[k]
		if n > callers {
			t.Errorf("replica %d accepted %d new connections for %d concurrent callers (%d in the first round)", k, n, callers, first[k])
		}
		t.Logf("replica %d: %d connections in the first round, %d in the second", k, first[k], n)
	}
}

var routerShapes = []gemm.Shape{
	{M: 2048, N: 8192, K: 4096},
	{M: 4096, N: 8192, K: 4096},
	{M: 4096, N: 8192, K: 8192},
	{M: 8192, N: 8192, K: 4096},
}

// Queries must land on the owning replica, and only there: after a sweep of
// distinct shapes, each replica's counters account for exactly its slice.
func TestRouterRoutesToOwner(t *testing.T) {
	r, _, services := testFleet(t, 3)
	owned := make([]uint64, 3)
	for _, shape := range routerShapes {
		ans, err := r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce})
		if err != nil {
			t.Fatal(err)
		}
		owner := r.Partitioner().Owner(shape)
		if ans.Owner != owner || ans.Replica != owner {
			t.Fatalf("shape %v: answered by replica %d (owner field %d), want %d",
				shape, ans.Replica, ans.Owner, owner)
		}
		owned[owner]++
	}
	st := r.Stats(context.Background())
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d on a healthy fleet", st.Failovers)
	}
	var totalServed uint64
	for k, svc := range services {
		s := svc.Stats()
		served := s.Hits + s.Misses
		if served != owned[k] {
			t.Errorf("replica %d served %d queries, want %d (disjoint ownership)", k, served, owned[k])
		}
		if st.PerShard[k].RoutedQueries != owned[k] {
			t.Errorf("router counted %d routed queries for replica %d, want %d", st.PerShard[k].RoutedQueries, k, owned[k])
		}
		if st.PerShard[k].RoutedSweepItems != 0 {
			t.Errorf("replica %d counted %d sweep items on a query-only workload", k, st.PerShard[k].RoutedSweepItems)
		}
		if st.PerShard[k].Health != "healthy" {
			t.Errorf("replica %d health = %q on a healthy fleet", k, st.PerShard[k].Health)
		}
		totalServed += served
	}
	if totalServed != uint64(len(routerShapes)) {
		t.Fatalf("fleet served %d queries, want %d", totalServed, len(routerShapes))
	}
	if st.Merged.Hits+st.Merged.Misses != uint64(len(routerShapes)) {
		t.Fatalf("merged stats count %d queries, want %d", st.Merged.Hits+st.Merged.Misses, len(routerShapes))
	}
}

// With one replica down, its queries fail over to the next shard in ring
// order and still succeed; the merged stats report the hole instead of
// failing.
func TestRouterFailsOverWhenReplicaDown(t *testing.T) {
	r, servers, _ := testFleet(t, 3)
	// Find a shape owned by replica 1 and kill that replica.
	var victim gemm.Shape
	found := false
	for _, shape := range routerShapes {
		if r.Partitioner().Owner(shape) == 1 {
			victim, found = shape, true
			break
		}
	}
	if !found {
		t.Fatal("no test shape owned by replica 1; extend routerShapes")
	}
	servers[1].Close()

	ans, err := r.Query(context.Background(), serve.Query{Shape: victim, Prim: hw.AllReduce})
	if err != nil {
		t.Fatalf("query with one replica down: %v", err)
	}
	if ans.Owner != 1 {
		t.Fatalf("owner = %d, want 1", ans.Owner)
	}
	if ans.Replica != 2 {
		t.Fatalf("failover landed on replica %d, want next-in-ring 2", ans.Replica)
	}
	if ans.Waves != ans.Partition.TotalWaves() || ans.Predicted <= 0 {
		t.Fatalf("malformed failover answer %+v", ans)
	}
	st := r.Stats(context.Background())
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	if st.PerShard[1].Error == "" {
		t.Fatal("down replica's stats hole not reported")
	}
	if st.PerShard[2].Stats.Shard != "2/3" {
		t.Fatalf("replica 2 shard label = %q, want 2/3", st.PerShard[2].Stats.Shard)
	}
}

// A query-level rejection (4xx) must not fail over: the second replica would
// reject it identically, and burning a fleet-wide retry on garbage input is
// how routers melt down.
func TestRouterDoesNotFailOverBadQueries(t *testing.T) {
	r, _, services := testFleet(t, 2)
	_, err := r.Query(context.Background(), serve.Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllGather})
	if err == nil {
		t.Fatal("unsupported primitive accepted")
	}
	if retryable(err) {
		t.Fatalf("4xx classified retryable: %v", err)
	}
	for k, svc := range services {
		if st := svc.Stats(); st.Tunes != 0 {
			t.Fatalf("replica %d tuned %d times for a rejected query", k, st.Tunes)
		}
	}
}

// A shape too large to plan is a query-level rejection too: the owner
// answers 422 and the router stops there instead of walking the ring.
func TestRouterRejectsUnplannableShapeAtOwner(t *testing.T) {
	_, servers, _ := testFleet(t, 2)
	var calls [2]atomic.Int64
	clients := make([]Client, len(servers))
	for k, srv := range servers {
		hc := &HTTPClient{Base: srv.URL}
		clients[k] = &stubClient{query: func(q serve.Query) (serve.Answer, error) {
			calls[k].Add(1)
			return hc.Query(context.Background(), q)
		}}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	shape := gemm.Shape{M: 1 << 30, N: 1 << 30, K: 1}
	_, err = r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Status != http.StatusUnprocessableEntity {
		t.Fatalf("unplannable shape: %v, want a 422 QueryError", err)
	}
	owner := r.Owner(shape)
	if calls[owner].Load() != 1 || calls[1-owner].Load() != 0 {
		t.Fatalf("replica calls = %d (owner %d), %d (other), want 1 and 0",
			calls[owner].Load(), owner, calls[1-owner].Load())
	}
	if f := r.Stats(context.Background()).Failovers; f != 0 {
		t.Fatalf("failovers = %d, want 0", f)
	}
}

// The router's own HTTP surface must look like a replica's: /query answers
// with routing attribution, /stats merges the fleet.
func TestRouterHandler(t *testing.T) {
	r, _, _ := testFleet(t, 2)
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/query?m=2048&n=8192&k=4096&prim=AR")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rr RoutedResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	want := r.Partitioner().Owner(gemm.Shape{M: 2048, N: 8192, K: 4096})
	if rr.Replica != want || rr.Owner != want {
		t.Fatalf("routed to %d (owner %d), want %d", rr.Replica, rr.Owner, want)
	}
	if len(rr.Partition) == 0 || rr.Waves <= 0 {
		t.Fatalf("malformed response %+v", rr)
	}

	bad, err := http.Get(front.URL + "/query?m=0&n=8192&k=4096")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", bad.StatusCode)
	}

	sresp, err := http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Replicas != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats fleet size %d/%d, want 2", st.Replicas, len(st.PerShard))
	}
	if st.Merged.Hits+st.Merged.Misses != 1 {
		t.Fatalf("merged query count = %d, want 1", st.Merged.Hits+st.Merged.Misses)
	}
}

// Warm must respect ownership: warming the full representative list on every
// replica populates only the owned slice of each cache, keeping the fleet's
// caches disjoint while covering the whole list.
func TestShardedWarmKeepsCachesDisjoint(t *testing.T) {
	_, _, services := testFleet(t, 3)
	p := NewPartitioner(3)
	for _, svc := range services {
		if err := svc.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, routerShapes, 0); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for k, svc := range services {
		st := svc.Stats()
		wantOwned := 0
		for _, s := range routerShapes {
			if p.Owns(k, s) {
				wantOwned++
			}
		}
		if st.ShapesCached != wantOwned {
			t.Errorf("replica %d cached %d shapes, want owned %d", k, st.ShapesCached, wantOwned)
		}
		total += st.ShapesCached
	}
	if total != len(routerShapes) {
		t.Fatalf("fleet cached %d shapes, want full list %d", total, len(routerShapes))
	}
}

// Regression for the failover-blocking bug: serve.Handler used to reply 422
// to *every* Service error, so the router wrapped transient internal
// replica failures as non-retryable QueryErrors and never failed over. An
// owner replying 500 (what serve.Handler now sends for internal failures)
// must ring to the next shard; TestHandlerClassifiesInternalErrorsAs5xx in
// internal/serve pins the other half — that internal failures actually
// produce the 500.
func TestRouterFailsOverOnInternalServerError(t *testing.T) {
	shape := gemm.Shape{M: 2048, N: 8192, K: 4096}
	owner := NewPartitioner(2).Owner(shape)

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error": "serve: tuning AllReduce: injected engine failure"}`))
	}))
	defer broken.Close()
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

	clients := make([]Client, 2)
	clients[owner] = &HTTPClient{Base: broken.URL}
	clients[1-owner] = &HTTPClient{Base: healthySrv.URL}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}

	ans, err := r.Query(context.Background(), serve.Query{Shape: shape, Prim: hw.AllReduce})
	if err != nil {
		t.Fatalf("query with owner failing internally: %v", err)
	}
	if ans.Replica != 1-owner {
		t.Fatalf("answered by replica %d, want failover to %d", ans.Replica, 1-owner)
	}
	if r.Stats(context.Background()).Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", r.Stats(context.Background()).Failovers)
	}

	// The same classification must hold for sweep chunks: a 500 from the
	// owner re-dispatches the chunk instead of failing the sweep.
	co := NewCoordinator(r)
	results, err := co.Sweep(context.Background(), []serve.SweepItem{{M: shape.M, N: shape.N, K: shape.K, Prim: "AR"}})
	if err != nil {
		t.Fatalf("sweep with owner failing internally: %v", err)
	}
	if results[0].Replica != 1-owner || co.Redispatches() != 1 {
		t.Fatalf("chunk answered by %d with %d re-dispatches, want replica %d after 1 re-dispatch",
			results[0].Replica, co.Redispatches(), 1-owner)
	}
}

// The router's /sweep rejects the bodies of serve's TestHandlerSweepErrors
// table with a replica's reply, byte for byte, and runs none of them: both
// handlers read the request through serve.ReadSweepRequest.
func TestRouterSweepRejectsWhatAReplicaRejects(t *testing.T) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]Client{&LocalClient{Svc: svc}})
	if err != nil {
		t.Fatal(err)
	}
	handlers := []http.Handler{serve.Handler(svc), r.Handler()}
	item := `{"m": 2048, "n": 8192, "k": 4096, "prim": "AR"}`
	for _, tc := range []struct {
		method, body string
		status       int
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed},
		{http.MethodPost, "{not json", http.StatusBadRequest},
		{http.MethodPost, `{"items": []}`, http.StatusBadRequest},
		{http.MethodPost, `{"items": [` + item + `]}garbage`, http.StatusBadRequest},
		{http.MethodPost, `{"items": [` + item + `]}{"items": [` + item + `]}`, http.StatusBadRequest},
	} {
		var replies [2]string
		for i, h := range handlers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, "/sweep", strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("%s %q: handler %d replied %d, want %d", tc.method, tc.body, i, rec.Code, tc.status)
			}
			replies[i] = rec.Body.String()
		}
		if replies[0] != replies[1] {
			t.Fatalf("%s %q: router replied %q, replica %q", tc.method, tc.body, replies[1], replies[0])
		}
	}
	if st := svc.Stats(); st.SweptItemsDES != 0 {
		t.Fatalf("rejected requests executed %d items", st.SweptItemsDES)
	}
}
