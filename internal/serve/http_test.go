package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gemm"
	"repro/internal/hw"
)

func TestHandlerQueryAndStats(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 2048, N: 8192, K: 4096}
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{shape}, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?m=2048&n=8192&k=4096&prim=AR")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Source != SourceCache {
		t.Fatalf("source = %q, want %q (shape was warmed)", qr.Source, SourceCache)
	}
	if qr.Shape != shape.String() || qr.Primitive != "AllReduce" {
		t.Fatalf("echoed query = %q %q", qr.Shape, qr.Primitive)
	}
	if len(qr.Partition) == 0 || qr.Waves <= 0 || qr.PredictedNs <= 0 {
		t.Fatalf("malformed response %+v", qr)
	}

	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.ShapesCached != 1 {
		t.Fatalf("stats over HTTP = %+v, want 1 hit and 1 cached shape", st)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	for _, url := range []string{
		"/query",                                // missing dimensions
		"/query?m=-5&n=8192&k=4096",             // negative dimension
		"/query?m=2048&n=8192&k=4096&prim=NOPE", // unknown primitive
		"/query?m=2048&n=8192&k=4096&prim=A2A&imbalance=0.5", // imbalance < 1
		"/query?m=2048&n=8192&k=4096&prim=A2A&imbalance=NaN", // NaN would poison the cache
		"/query?m=2048&n=8192&k=4096&prim=A2A&imbalance=Inf", // so would +Inf
	} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: non-JSON error body: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, resp.StatusCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", url)
		}
		if env.Error.Retryable {
			t.Errorf("%s: deterministic rejection marked retryable", url)
		}
	}

	// A well-formed shape whose tile grid is over gemm.MaxTiles parses but
	// can never be planned: 422, not a recovered allocation panic (500)
	// that a router would retry on every replica.
	resp, err := http.Get(srv.URL + "/query?m=1073741824&n=1073741824&k=1")
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("unplannable shape: non-JSON error body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Retryable {
		t.Fatalf("unplannable shape: status %d retryable %v, want 422 and not retryable", resp.StatusCode, env.Error.Retryable)
	}
}

// Error classification over HTTP: a deterministic rejection of the request
// replies 4xx (a router must not fail over — every replica rejects it
// identically), while an internal failure replies 500 (retryable on another
// replica). The old handler mapped every Service error to 422, so routers
// wrapped transient internal failures as non-retryable QueryErrors and a
// degraded replica blocked its whole shard slice.
func TestHandlerClassifiesInternalErrorsAs5xx(t *testing.T) {
	s := testService(t)
	injected := errors.New("injected tuner failure")
	s.tuneHook = func() error { return injected }
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?m=2048&n=8192&k=4096&prim=AR")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("internal tuning failure status = %d, want 500", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, "injected tuner failure") {
		t.Fatalf("error body %q does not name the cause", env.Error.Message)
	}
	if !env.Error.Retryable {
		t.Fatal("internal failure not marked retryable in the envelope")
	}
}

// The classification seam itself: query-level rejections satisfy
// IsBadQuery, internal failures do not.
func TestQueryErrorClassification(t *testing.T) {
	s := testService(t)
	if _, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 0, N: 1, K: 1}, Prim: hw.AllReduce}); !IsBadQuery(err) {
		t.Fatalf("invalid shape not classified as bad query: %v", err)
	}
	if _, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllGather}); !IsBadQuery(err) {
		t.Fatalf("unsupported primitive not classified as bad query: %v", err)
	}
	huge := gemm.Shape{M: 1 << 30, N: 1 << 30, K: 1}
	if _, err := s.Query(context.Background(), Query{Shape: huge, Prim: hw.AllReduce}); !IsBadQuery(err) || !errors.Is(err, gemm.ErrTooManyTiles) {
		t.Fatalf("shape over gemm.MaxTiles not classified as bad query: %v", err)
	}
	if st := s.Stats(); st.Misses != 0 || st.Tunes != 0 {
		t.Fatalf("unplannable shape reached the tuner: %d misses, %d tunes", st.Misses, st.Tunes)
	}
	s.tuneHook = func() error { return errors.New("boom") }
	_, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllReduce})
	if err == nil || IsBadQuery(err) {
		t.Fatalf("internal failure classified as bad query: %v", err)
	}
}

func postSweep(t *testing.T, url string, req SweepRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// POST /sweep executes a chunk in order and returns one result per item;
// the untuned results must be byte-identical to the same runs through
// engine.Exec (the property sweep re-dispatch relies on).
func TestHandlerSweep(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
	}
	resp := postSweep(t, srv.URL, SweepRequest{Items: items})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(sr.Results), len(items))
	}
	ref, err := s.CollectSweep(context.Background(), SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range sr.Results {
		if res.Shape != items[i].Shape().String() {
			t.Fatalf("result %d answers %q, want %q (input order)", i, res.Shape, items[i].Shape())
		}
		if res.Result == nil || res.Result.Latency <= 0 || len(res.Partition) == 0 || res.Waves <= 0 {
			t.Fatalf("malformed result %+v", res)
		}
		if res.Source != "" || res.PredictedNs != 0 {
			t.Fatalf("untuned sweep reported tuner fields: %+v", res)
		}
		got, err := json.Marshal(res.Result)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result %d diverges from the in-process execution after the HTTP round-trip", i)
		}
	}
}

// A tuned sweep answers through the cache/singleflight path and executes
// the tuned partition: tuner fields must be populated and a repeated shape
// must hit the cache.
func TestHandlerSweepTuned(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 2048, N: 8192, K: 4096, Prim: "AR"}, // duplicate: second must be a cache hit
	}
	resp := postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Results[0].Source != SourceTuned || sr.Results[1].Source != SourceCache {
		t.Fatalf("sources = %q, %q; want tuned then cache", sr.Results[0].Source, sr.Results[1].Source)
	}
	for i, res := range sr.Results {
		if res.PredictedNs <= 0 || res.Result == nil || res.Result.Latency <= 0 {
			t.Fatalf("malformed tuned result %d: %+v", i, res)
		}
	}
}

// badSweepBodies are /sweep bodies every handler rejects with a 400: a
// malformed body, an empty chunk, and a valid request followed by more
// data, which a decoder that stops after the first value would run.
var badSweepBodies = []string{
	"{not json",
	`{"items": []}`,
	`{"items": [{"m": 2048, "n": 8192, "k": 4096, "prim": "AR"}]}garbage`,
	`{"items": [{"m": 2048, "n": 8192, "k": 4096, "prim": "AR"}]}{"items": [{"m": 2048, "n": 8192, "k": 4096, "prim": "AR"}]}`,
}

// /sweep errors classify like /query errors and carry the chunk-local index
// of the failing item, so a coordinator can attribute the failure to a
// global grid index.
func TestHandlerSweepErrors(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /sweep status = %d, want 405", resp.StatusCode)
	}

	for _, body := range badSweepBodies {
		resp, err := http.Post(srv.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}

	// A bad item is a deterministic rejection: 422 plus its chunk index.
	resp = postSweep(t, srv.URL, SweepRequest{Items: []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 0, N: 8192, K: 4096, Prim: "AR"},
	}})
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad item status = %d, want 422", resp.StatusCode)
	}
	if env.Error.Index == nil || *env.Error.Index != 1 {
		t.Fatalf("failing item index = %v, want 1", env.Error.Index)
	}
	if env.Error.Retryable {
		t.Fatal("deterministic item rejection marked retryable")
	}

	// So is an item too large to plan, on both the buffered and the
	// streamed reply.
	resp = postSweep(t, srv.URL, SweepRequest{Items: []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 1 << 30, N: 1 << 30, K: 1, Prim: "AR"},
	}})
	env = ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Retryable {
		t.Fatalf("unplannable item: status %d retryable %v, want 422 and not retryable", resp.StatusCode, env.Error.Retryable)
	}
	if env.Error.Index == nil || *env.Error.Index != 1 {
		t.Fatalf("unplannable item index = %v, want 1", env.Error.Index)
	}

	// An internal failure is 5xx, still attributed to its item.
	s.tuneHook = func() error { return errors.New("injected tuner failure") }
	resp = postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: []SweepItem{
		{M: 1024, N: 8192, K: 4096, Prim: "AR"},
	}})
	env = ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("internal failure status = %d, want 500", resp.StatusCode)
	}
	if env.Error.Index == nil || *env.Error.Index != 0 || !strings.Contains(env.Error.Message, "injected tuner failure") {
		t.Fatalf("internal failure body = %+v, want index 0 naming the cause", env.Error)
	}
	if !env.Error.Retryable {
		t.Fatal("internal item failure not marked retryable")
	}
}

// Partial-chunk completion end to end on the serve side: a chunk failing at
// item i returns the completed prefix results[0..i) both from SweepChunk and
// in the /sweep error body, so a coordinator re-dispatches only the suffix.
func TestSweepChunkKeepsCompletedPrefixOnFailure(t *testing.T) {
	s := testService(t)
	var tunes atomic.Int64
	s.tuneHook = func() error {
		if tunes.Add(1) >= 2 {
			return errors.New("injected crash on the second tune")
		}
		return nil
	}
	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"}, // distinct shape: second tune fails
	}

	partial, err := s.CollectSweep(context.Background(), SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("error %v does not name chunk item 1", err)
	}
	if len(partial) != 1 {
		t.Fatalf("SweepChunk kept %d results, want the 1-item completed prefix", len(partial))
	}
	if partial[0].Shape != items[0].Shape().String() || partial[0].Result == nil {
		t.Fatalf("salvaged prefix %+v does not answer item 0", partial[0])
	}

	// The same over HTTP: the error body carries the prefix under
	// "results". Item 0 is now a cache hit (no tune), item 1 still fails.
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	resp := postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Index == nil || *env.Error.Index != 1 || len(env.Error.Results) != 1 {
		t.Fatalf("error body index %v with %d results, want index 1 with the 1-item prefix", env.Error.Index, len(env.Error.Results))
	}
	if env.Error.Results[0].Shape != items[0].Shape().String() {
		t.Fatalf("prefix answers %q, want item 0 (%q)", env.Error.Results[0].Shape, items[0].Shape())
	}
}

// /healthz is the liveness probe behind dead-replica re-admission: 200 with
// the replica's shard label.
func TestHandlerHealthz(t *testing.T) {
	s, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Shard: "1/4"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["shard"] != "1/4" {
		t.Fatalf("body = %v, want status ok with shard 1/4", body)
	}
}

// FuzzSweepRequest holds ReadSweepRequest to json.Unmarshal: on any body it
// never panics, accepts exactly when json.Unmarshal into a SweepRequest
// accepts and the request names an item, decodes an accepted body to a
// request reflect.DeepEqual to json.Unmarshal's, and rejects the rest with
// a 400.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range append([]string{
		// The v2 smoke body CI's multihost job posts to the router.
		`{"items":[{"m":2048,"n":8192,"k":4096,"prim":"AR"},{"m":4096,"n":8192,"k":4096,"prim":"AR"},{"m":4096,"n":8192,"k":8192,"prim":"AR"},{"m":8192,"n":8192,"k":4096,"prim":"AR"}]}`,
		`{"tune": true, "chunk": 8, "attempts": 2, "fidelity": "mixed", "topk": 2, "rank_quantum": 2.5, "tenant": "team-a", "stream": true,` +
			` "items": [{"m": 4096, "n": 8192, "k": 8192, "prim": "A2A", "imbalance": 1.3, "fidelity": "des"}]}` + "\n",
		"",
		"null",
	}, badSweepBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		got, ok := ReadSweepRequest(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		var want SweepRequest
		accept := json.Unmarshal(body, &want) == nil && len(want.Items) > 0
		if ok != accept {
			t.Fatalf("%q: accepted = %v, want %v", body, ok, accept)
		}
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: rejected with status %d, want 400", body, rec.Code)
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("%q: accepted body wrote a reply %q", body, rec.Body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, json.Unmarshal decodes %+v", body, got, want)
		}
	})
}

// FuzzParseQuery feeds arbitrary query strings to ParseQuery, which the
// router and every replica run on each /query. It never panics; an accepted
// query has positive dimensions, an imbalance of 0 or a finite factor >= 1,
// and a valid tenant; and the query rendered back to parameters, the way
// the router forwards it, parses to an equal Query.
func FuzzParseQuery(f *testing.F) {
	for _, raw := range []string{
		"",
		"m=2048&n=8192&k=4096&prim=AR",
		"m=4096&n=8192&k=4096&prim=AR",
		"m=4096&n=8192&k=8192&prim=A2A&imbalance=4",
		"m=4096&n=8192&k=4096&prim=A2A&imbalance=2",
		"m=2048&n=8192&k=4096&prim=ReduceScatter&tenant=team-a.v1_2",
		"m=0&n=8192&k=4096",
		"m=-5&n=8192&k=4096",
		"m=2048&n=8192&k=4096&prim=NOPE",
		"m=2048&n=8192&k=4096&prim=A2A&imbalance=0.5",
		"m=2048&n=8192&k=4096&prim=A2A&imbalance=NaN",
		"m=2048&n=8192&k=4096&prim=A2A&imbalance=Inf",
		"m=1073741824&n=1073741824&k=1",
		"m=2048&n=8192&k=4096&tenant=bad%20label",
	} {
		f.Add(raw)
	}
	parse := func(raw string) (Query, error) {
		return ParseQuery(&http.Request{URL: &url.URL{RawQuery: raw}})
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := parse(raw)
		if err != nil {
			return
		}
		if q.Shape.M <= 0 || q.Shape.N <= 0 || q.Shape.K <= 0 {
			t.Fatalf("%q: accepted shape %v", raw, q.Shape)
		}
		if q.Imbalance != 0 && (!(q.Imbalance >= 1) || math.IsInf(q.Imbalance, 0)) {
			t.Fatalf("%q: accepted imbalance %v", raw, q.Imbalance)
		}
		if err := ValidateTenant(q.Tenant); err != nil {
			t.Fatalf("%q: accepted tenant: %v", raw, err)
		}
		v := url.Values{}
		v.Set("m", strconv.Itoa(q.Shape.M))
		v.Set("n", strconv.Itoa(q.Shape.N))
		v.Set("k", strconv.Itoa(q.Shape.K))
		v.Set("prim", q.Prim.Short())
		if q.Imbalance != 0 {
			v.Set("imbalance", strconv.FormatFloat(q.Imbalance, 'g', -1, 64))
		}
		if q.Tenant != "" {
			v.Set("tenant", q.Tenant)
		}
		back, err := parse(v.Encode())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose parameters %q are rejected: %v", raw, q, v.Encode(), err)
		}
		if back != q {
			t.Fatalf("%q parsed to %+v; its parameters %q parse to %+v", raw, q, v.Encode(), back)
		}
	})
}
