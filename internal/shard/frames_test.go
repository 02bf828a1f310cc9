package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/serve"
)

// A result frame without a result object, or whose execution result is
// null, is rejected like a result frame without a result. A mixed sweep
// reads every analytic result's latency to rank the grid; over such a
// stream it returns an error instead of dereferencing a nil result, and
// its sink never sees one. The stub writes canonical lines, so the frame
// grammar accepts them and the missing result is what is rejected.
func TestMixedSweepRejectsResultFrameWithoutExecution(t *testing.T) {
	for name, result := range map[string]*serve.SweepResult{
		"missing": nil,
		"null":    {Shape: "M512-N4096-K4096"},
	} {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
				var req serve.SweepRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				w.Header().Set("Content-Type", serve.ContentTypeNDJSON)
				enc := json.NewEncoder(w)
				for j := range req.Items {
					enc.Encode(serve.SweepFrame{Frame: serve.FrameResult, Index: j, Result: result})
				}
				enc.Encode(serve.SweepFrame{Frame: serve.FrameDone, Count: len(req.Items)})
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			r, err := NewRouter([]Client{&HTTPClient{Base: srv.URL}})
			if err != nil {
				t.Fatal(err)
			}
			co := NewCoordinator(r)
			co.Spec.Fidelity = serve.FidelityMixed
			err = co.Stream(context.Background(), coordItems(), func(i int, res SweepResult) error {
				if res.Result == nil {
					t.Errorf("item %d reached the sink without a result", i)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "result frame without a result") {
				t.Fatalf("mixed sweep over result frames without results returned %v", err)
			}
			if got := r.Health().State(0); got != Healthy {
				t.Fatalf("replica is %v after a malformed reply, want healthy (it answered)", got)
			}
		})
	}
}

// ownedItems returns sweep items whose shapes replica 0 of a two-replica
// fleet owns, so a chunk of them goes to replica 1 only by failing over.
func ownedItems(t *testing.T, n int) []serve.SweepItem {
	t.Helper()
	part := NewPartitioner(2)
	var items []serve.SweepItem
	for _, s := range quickGridShapes() {
		if part.Owner(s) == 0 && len(items) < n {
			items = append(items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: "AR"})
		}
	}
	if len(items) < n {
		t.Fatalf("replica 0 owns %d quick-grid shapes, want %d", len(items), n)
	}
	return items
}

// A reply that breaks the v2 grammar — a line that does not decode (a
// frame split across lines, two frames on one line), a frame of an
// unknown kind, a result frame without a result — is the replica
// answering: it stays healthy, the chunk stops with a bare error, and the
// other replica never receives the chunk.
func TestMalformedStreamStopsChunkAndKeepsReplicaHealthy(t *testing.T) {
	items := ownedItems(t, 2)
	for _, tc := range []struct{ name, body string }{
		{"frame split across lines", "{\"frame\":\"result\",\n\"index\":0}\n"},
		{"two frames on one line", `{"frame":"done","count":2} {"frame":"done","count":2}` + "\n"},
		{"not json", "<html>upstream</html>\n"},
		{"unknown kind", `{"frame":"progress","count":1}` + "\n" + `{"frame":"done","count":2}` + "\n"},
		{"result frame without a result", `{"frame":"result","result":{"shape":"M512-N4096-K4096"}}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", serve.ContentTypeNDJSON)
				io.WriteString(w, tc.body)
			}))
			defer bad.Close()
			var otherCalls atomic.Int64
			other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				otherCalls.Add(1)
				http.Error(w, "must not be called", http.StatusInternalServerError)
			}))
			defer other.Close()
			r, err := NewRouter([]Client{&HTTPClient{Base: bad.URL}, &HTTPClient{Base: other.URL}})
			if err != nil {
				t.Fatal(err)
			}
			err = NewCoordinator(r).Stream(context.Background(), items, func(i int, _ SweepResult) error {
				t.Errorf("item %d emitted from a malformed reply", i)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "malformed reply") {
				t.Fatalf("sweep over a malformed reply returned %v", err)
			}
			if got := r.Health().State(0); got != Healthy {
				t.Fatalf("replica 0 is %v after a malformed reply, want healthy (it answered)", got)
			}
			if n := otherCalls.Load(); n != 0 {
				t.Fatalf("replica 1 called %d times; a malformed reply must not fail over", n)
			}
		})
	}
}

// A stream cut in the middle of a line is a transport failure: the
// replica is benched, the chunk fails over, and the result the replica
// streamed before the cut is kept as salvage.
func TestStreamCutMidLineBenchesReplicaAndKeepsSalvage(t *testing.T) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	items := ownedItems(t, 2)
	want, err := svc.CollectSweep(context.Background(), serve.SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux() // no /healthz: the prober cannot re-admit it
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		st := serve.NewSweepStream[serve.SweepResult](w)
		if err := st.Result(0, want[0]); err != nil {
			panic(http.ErrAbortHandler)
		}
		line, _ := json.Marshal(serve.SweepFrame{Frame: serve.FrameResult, Index: 1, Result: &want[1]})
		w.Write(line[:len(line)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	cut := httptest.NewServer(mux)
	defer cut.Close()
	good := httptest.NewServer(serve.Handler(svc))
	defer good.Close()
	r, err := NewRouter([]Client{&HTTPClient{Base: cut.URL}, &HTTPClient{Base: good.URL}})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	got := make([]SweepResult, len(items))
	if err := co.Stream(context.Background(), items, func(i int, res SweepResult) error {
		got[i] = res
		return nil
	}); err != nil {
		t.Fatalf("sweep across a stream cut mid-line: %v", err)
	}
	if st := r.Health().State(0); st == Healthy {
		t.Fatal("replica 0 stays healthy after its stream was cut mid-line")
	}
	if n := co.PartialSalvages(); n != 1 {
		t.Fatalf("%d items salvaged, want the 1 streamed before the cut", n)
	}
	for i, replica := range []int{0, 1} {
		if got[i].Replica != replica {
			t.Errorf("item %d answered by replica %d, want %d", i, got[i].Replica, replica)
		}
		g, _ := json.Marshal(got[i].SweepResult)
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("item %d: %s, want %s", i, g, w)
		}
	}
}

// A multi-chunk sweep over one replica reuses one connection: the frame
// reader sees each reply's end with its terminal frame, so the transport
// can hand the connection to the next chunk.
func TestHTTPClientReusesOneConnectionAcrossChunks(t *testing.T) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, Curves: sharedCurves(t)})
	if err != nil {
		t.Fatal(err)
	}
	var conns, chunks atomic.Int64
	inner := serve.Handler(svc)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sweep" {
			chunks.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	r, err := NewRouter([]Client{&HTTPClient{Base: srv.URL, HTTP: &http.Client{Transport: transport}}})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	co.Spec.Chunk = 2
	var items []serve.SweepItem
	for len(items) < 16 {
		items = append(items, coordItems()...)
	}
	items = items[:16]
	if err := co.Stream(context.Background(), items, func(int, SweepResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c, n := chunks.Load(), conns.Load(); c != 8 || n != 1 {
		t.Fatalf("%d chunks over %d connections, want 8 over 1", c, n)
	}
}

// FuzzSweepFrames feeds arbitrary bytes to the v2 frame decoder as a
// replica's reply body. It never panics, returns nil only after a done
// frame, hands the sink only results that carry an execution result, and
// every delivered result re-encodes to bytes that decode and encode back to
// themselves.
func FuzzSweepFrames(f *testing.F) {
	svc, err := serve.New(serve.Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, Curves: sharedCurves(f)})
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(serve.SweepRequest{Items: []serve.SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 4096, Prim: "AR", Fidelity: serve.FidelityAnalytic},
	}})
	if err != nil {
		f.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body))
	req.Header.Set("Accept", serve.ContentTypeNDJSON)
	rec := httptest.NewRecorder()
	serve.Handler(svc).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"frame":"done","count":2`) {
		f.Fatalf("two-item v2 reply: %d %s", rec.Code, rec.Body)
	}
	f.Add(rec.Body.Bytes())
	for _, seed := range []string{
		// The 200-status bodies of TestHTTPClientDecodesWireErrors.
		`{"frame":"error","error":{"message":"bad item","retryable":false}}`,
		`{"frame":"error","salvaged":1,"error":{"message":"engine crashed","retryable":true,"index":1}}`,
		`{"frame":"error"}`,
		// Result frames without an execution result.
		`{"frame":"result","result":{"shape":"M512-N4096-K4096"}}` + "\n" + `{"frame":"done","count":1}`,
		`{"frame":"result","result":{"shape":"M512-N4096-K4096","result":null}}`,
	} {
		f.Add([]byte(seed + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &HTTPClient{Base: "http://fuzz"}
		delivered := 0
		err := c.sweepFrames(bytes.NewReader(data), func(_ int, res serve.SweepResult) error {
			if res.Result == nil {
				t.Fatalf("%q delivered a result without an execution result", data)
			}
			delivered++
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("delivered result does not encode: %v", err)
			}
			var back serve.SweepResult
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("re-encoded result %s does not decode: %v", b, err)
			}
			again, err := json.Marshal(back)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("re-encoded result %s encodes back as %s (%v)", b, again, err)
			}
			return nil
		})
		if err != nil {
			return
		}
		// The value after the delivered results must be a done frame.
		dec := json.NewDecoder(bytes.NewReader(data))
		var fr serve.SweepFrame
		for i := 0; i <= delivered; i++ {
			fr = serve.SweepFrame{}
			if dec.Decode(&fr) != nil {
				t.Fatalf("%q accepted without a frame after its %d results", data, delivered)
			}
		}
		if fr.Frame != serve.FrameDone {
			t.Fatalf("%q accepted with a %q frame after its %d results", data, fr.Frame, delivered)
		}
	})
}
