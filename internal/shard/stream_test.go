package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/serve"
)

// Stream must emit each item as its chunk completes, not buffer the grid:
// with one item per chunk against a scripted single-shard fleet, the k-th
// emission may only happen after exactly k+1 dispatches — if the
// coordinator collected results before emitting, every emission would
// observe the full dispatch count.
func TestCoordinatorStreamEmitsIncrementally(t *testing.T) {
	var dispatches atomic.Int64
	stub := &stubClient{
		sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			dispatches.Add(1)
			out := make([]serve.SweepResult, len(req.Items))
			for i, it := range req.Items {
				out[i] = serve.SweepResult{Fidelity: it.Fidelity, Result: &core.Result{}}
			}
			return out, nil
		},
	}
	r, err := NewRouter([]Client{stub})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	co.Spec.Chunk = 1
	items := coordItems()
	emitted := 0
	err = co.Stream(context.Background(), items, func(i int, res SweepResult) error {
		if i != emitted {
			t.Fatalf("emission %d carries index %d; single-shard chunks stream in order", emitted, i)
		}
		if got := dispatches.Load(); got != int64(emitted+1) {
			t.Fatalf("emission %d observed %d dispatches, want %d — the stream is buffering chunks",
				emitted, got, emitted+1)
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != len(items) {
		t.Fatalf("%d emissions for %d items", emitted, len(items))
	}
}

// A sink error aborts the stream: no further emissions, and the error
// surfaces to the caller.
func TestCoordinatorStreamSinkErrorAborts(t *testing.T) {
	r, _, _ := testFleet(t, 1)
	co := NewCoordinator(r)
	co.Spec.Chunk = 1
	calls := 0
	err := co.Stream(context.Background(), coordItems(), func(int, SweepResult) error {
		calls++
		return io.ErrClosedPipe
	})
	if err == nil {
		t.Fatal("sink error did not abort the stream")
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after aborting on the first emission", calls)
	}
}

// postStream posts a v2 sweep to a router front-end, negotiating the stream
// either with the Accept header or the request's stream field, and returns
// the decoded frame sequence.
func postStream(t *testing.T, url string, viaHeader bool, req serve.SweepRequest) []routedFrame {
	t.Helper()
	req.Stream = !viaHeader
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if viaHeader {
		hreq.Header.Set("Accept", serve.ContentTypeNDJSON)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != serve.ContentTypeNDJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, serve.ContentTypeNDJSON)
	}
	dec := json.NewDecoder(resp.Body)
	var frames []routedFrame
	for dec.More() {
		var fr routedFrame
		if err := dec.Decode(&fr); err != nil {
			t.Fatalf("decoding frame %d: %v", len(frames), err)
		}
		frames = append(frames, fr)
	}
	return frames
}

// streamResults asserts the frame sequence is result frames covering each
// item exactly once plus a terminal done frame, and scatters them into
// global order.
func streamResults(t *testing.T, frames []routedFrame, nItems int) []SweepResult {
	t.Helper()
	if len(frames) != nItems+1 {
		t.Fatalf("%d frames for %d items, want one per item plus done", len(frames), nItems)
	}
	last := frames[nItems]
	if last.Frame != serve.FrameDone || last.Count != nItems {
		t.Fatalf("terminal frame = %+v, want done counting %d", last, nItems)
	}
	results := make([]SweepResult, nItems)
	seen := make([]bool, nItems)
	for _, fr := range frames[:nItems] {
		if fr.Frame != serve.FrameResult || fr.Result == nil {
			t.Fatalf("frame %+v, want a result frame", fr)
		}
		if fr.Index < 0 || fr.Index >= nItems || seen[fr.Index] {
			t.Fatalf("frame index %d out of range or duplicated", fr.Index)
		}
		seen[fr.Index] = true
		if fr.Fidelity != fr.Result.Fidelity {
			t.Fatalf("frame fidelity %q disagrees with its result's %q", fr.Fidelity, fr.Result.Fidelity)
		}
		results[fr.Index] = *fr.Result
	}
	return results
}

// The full elastic-ownership story through the router's v2 /sweep proxy:
// a replica that dies mid-sweep (at its first DES refine chunk of a mixed
// sweep) fails over without corrupting the stream — per-item fidelity
// labels and global order survive, byte-identical to single-process
// engine.MixedBatch — then ages past the eviction window so its cells
// rebalance to the survivors (owned directly, no failover hop), and on
// restart the prober hands exactly those cells back.
func TestRouterStreamSweepAcrossKillRebalanceAndHandback(t *testing.T) {
	const n = 3
	items := coordItems()
	refJSON, refined := coordMixedReference(t, items)

	// The victim must own both tiers: an analytic keeper (proving it
	// participated before dying) and at least one refined item (work that
	// must fail over after it dies). Its first item must be the keeper:
	// an owner's first chunk is never taken, so the victim answers it
	// whatever the idle replicas take.
	part := NewPartitioner(n)
	isRefined := make(map[int]bool)
	for _, gi := range refined {
		isRefined[gi] = true
	}
	firstOwned := make([]int, n)
	refinedOwned := make([]int, n)
	for k := range firstOwned {
		firstOwned[k] = -1
	}
	for i, it := range items {
		o := part.Owner(it.Shape())
		if firstOwned[o] < 0 {
			firstOwned[o] = i
		}
		if isRefined[i] {
			refinedOwned[o]++
		}
	}
	victim := -1
	for k := 0; k < n; k++ {
		if firstOwned[k] >= 0 && !isRefined[firstOwned[k]] && refinedOwned[k] > 0 {
			victim = k
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard owns a refined item and opens its queue with a keeper; extend the grid")
	}

	// The fleet: the victim's handler simulates a crash at its first
	// DES-stamped chunk — from then until "restart" every request
	// (chunks and /healthz probes alike) aborts mid-response, the
	// transport failure a died process produces.
	var down atomic.Bool
	var die sync.Once
	servers := make([]*httptest.Server, n)
	clients := make([]Client, n)
	httpClient := &http.Client{Timeout: 5 * time.Second}
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
		inner := serve.Handler(svc)
		handler := inner
		if k == victim {
			handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if req.Method == http.MethodPost && req.URL.Path == "/sweep" {
					body, err := io.ReadAll(req.Body)
					if err != nil {
						panic(http.ErrAbortHandler)
					}
					var sr serve.SweepRequest
					if json.Unmarshal(body, &sr) == nil && len(sr.Items) > 0 &&
						sr.Items[0].Fidelity == serve.FidelityDES {
						die.Do(func() { down.Store(true) })
					}
					req.Body = io.NopCloser(bytes.NewReader(body))
				}
				if down.Load() {
					panic(http.ErrAbortHandler)
				}
				inner.ServeHTTP(w, req)
			})
		}
		servers[k] = httptest.NewServer(handler)
		t.Cleanup(servers[k].Close)
		clients[k] = &HTTPClient{Base: servers[k].URL, HTTP: httpClient}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	r.Health().SetCooldown(150 * time.Millisecond)
	r.Health().SetEvictAfter(1)
	stopProber := r.StartProber(context.Background(), 10*time.Millisecond)
	defer stopProber()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	// Sweep A: mixed, one item per chunk, streamed via the Accept header.
	// The victim answers its analytic chunks, then dies at its first
	// refine chunk; its refined items fail over.
	frames := postStream(t, front.URL, true, serve.SweepRequest{
		SweepSpec: serve.SweepSpec{Fidelity: serve.FidelityMixed, Chunk: 1},
		Items:     items,
	})
	results := streamResults(t, frames, len(items))
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("streamed mixed sweep diverges from single-process engine.MixedBatch across the kill")
	}
	checkMixedLabels(t, results, refined)
	sawVictimKeeper := false
	for i, res := range results {
		if !isRefined[i] && res.Replica == victim {
			sawVictimKeeper = true
		}
		if isRefined[i] && part.Owner(items[i].Shape()) == victim && res.Replica == victim {
			t.Fatalf("refined item %d answered by the victim after it died", i)
		}
	}
	if !sawVictimKeeper {
		t.Fatal("victim answered no analytic keeper; the kill preceded its participation")
	}
	if st := r.Stats(context.Background()); st.Failovers == 0 {
		t.Fatal("router stats recorded no failover for the victim's refine chunks")
	}

	// The victim stays dead past the eviction window: its cells rebalance.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats(context.Background()).Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim not evicted within 5s of dying (window = 1×150ms)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := r.Stats(context.Background()); !st.PerShard[victim].Evicted {
		t.Fatal("stats do not flag the victim evicted")
	}

	// Sweep B: victim-owned items while the victim is evicted. Survivors
	// own them outright — dispatch goes straight there, no failover hop.
	var victimItems []serve.SweepItem
	for _, it := range items {
		if part.Owner(it.Shape()) == victim {
			victimItems = append(victimItems, it)
		}
	}
	failoversBefore := r.Stats(context.Background()).Failovers
	resultsB := streamResults(t,
		postStream(t, front.URL, false, serve.SweepRequest{Items: victimItems}),
		len(victimItems))
	for i, res := range resultsB {
		if res.Owner == victim || res.Replica == victim {
			t.Fatalf("evicted victim still involved in item %d: owner %d, replica %d", i, res.Owner, res.Replica)
		}
		if res.Replica != res.Owner {
			t.Fatalf("item %d took a failover hop (%d -> %d) though ownership rebalanced", i, res.Owner, res.Replica)
		}
	}
	if got := r.Stats(context.Background()).Failovers; got != failoversBefore {
		t.Fatalf("rebalanced sweep burned %d failovers; survivors own the cells directly", got-failoversBefore)
	}

	// Restart: the prober re-admits the victim and hands its cells back.
	down.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for r.Stats(context.Background()).Handbacks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim not handed its cells back within 10s of restarting")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Sweep C: the same items land back on the victim, and the answers are
	// byte-identical to sweep B's — rebalancing moved ownership, never the
	// results.
	resultsC := streamResults(t,
		postStream(t, front.URL, true, serve.SweepRequest{Items: victimItems}),
		len(victimItems))
	for i, res := range resultsC {
		if res.Owner != victim || res.Replica != victim {
			t.Fatalf("item %d after hand-back: owner %d, replica %d, want the victim %d both", i, res.Owner, res.Replica, victim)
		}
	}
	if !bytes.Equal(mergedJSON(t, resultsB), mergedJSON(t, resultsC)) {
		t.Fatal("results diverge between the rebalanced and handed-back sweeps")
	}
}
