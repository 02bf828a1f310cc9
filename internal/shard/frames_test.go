package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/serve"
)

// A result frame whose execution result is missing or null is rejected
// like a result frame without a result. A mixed sweep reads every analytic
// result's latency to rank the grid; over such a stream it returns an error
// instead of dereferencing a nil result, and its sink never sees one.
func TestMixedSweepRejectsResultFrameWithoutExecution(t *testing.T) {
	for name, frame := range map[string]string{
		"missing": `{"frame":"result","index":%d,"result":{"shape":"M512-N4096-K4096"}}`,
		"null":    `{"frame":"result","index":%d,"result":{"shape":"M512-N4096-K4096","result":null}}`,
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
				for j := range req.Items {
					fmt.Fprintf(w, frame+"\n", j)
				}
				fmt.Fprintf(w, `{"frame":"done","count":%d}`+"\n", len(req.Items))
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
		})
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
