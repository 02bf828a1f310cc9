package workload

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := Synth(SynthConfig{Seed: 1, Duration: 2 * time.Second, QPS: 40})
	if len(tr.Events) == 0 {
		t.Fatal("synth produced an empty trace")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("trace did not round-trip:\nwrote %d events, read %d", len(tr.Events), len(back.Events))
	}
}

func TestSynthDeterministic(t *testing.T) {
	cfg := SynthConfig{Seed: 42, Duration: 3 * time.Second}
	a, b := Synth(cfg), Synth(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := Synth(SynthConfig{Seed: 43, Duration: 3 * time.Second})
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSynthTenantsDistinct(t *testing.T) {
	tr := Synth(SynthConfig{Seed: 7, Duration: 5 * time.Second})
	tenants := tr.Tenants()
	if want := []string{"tenant-0", "tenant-1", "tenant-2"}; !reflect.DeepEqual(tenants, want) {
		t.Fatalf("tenants = %v; want %v", tenants, want)
	}
	prims := map[string]map[string]bool{}
	for _, ev := range tr.Events {
		if prims[ev.Tenant] == nil {
			prims[ev.Tenant] = map[string]bool{}
		}
		prims[ev.Tenant][ev.Prim] = true
		if ev.Tenant == "tenant-2" && ev.Imbalance != 1.5 {
			t.Fatalf("tenant-2 event has imbalance %v; want 1.5", ev.Imbalance)
		}
		if ev.Tenant != "tenant-2" && ev.Imbalance != 0 {
			t.Fatalf("%s event has imbalance %v; want 0", ev.Tenant, ev.Imbalance)
		}
	}
	for tenant, want := range map[string]string{"tenant-0": "AR", "tenant-1": "RS", "tenant-2": "A2A"} {
		if len(prims[tenant]) != 1 || !prims[tenant][want] {
			t.Fatalf("%s prims = %v; want only %s", tenant, prims[tenant], want)
		}
	}
}

func TestSynthOrderedAndBounded(t *testing.T) {
	tr := Synth(SynthConfig{Seed: 9, Duration: 2 * time.Second})
	var prev int64
	for i, ev := range tr.Events {
		if ev.OffsetMs < prev {
			t.Fatalf("event %d at %dms precedes event %d at %dms", i, ev.OffsetMs, i-1, prev)
		}
		prev = ev.OffsetMs
		if ev.OffsetMs > 2000 {
			t.Fatalf("event %d at %dms is past the 2s horizon", i, ev.OffsetMs)
		}
	}
}

// invalidTraces are trace files ReadTrace must reject, by what is wrong
// with them.
var invalidTraces = map[string]string{
	"empty":           "",
	"bad version":     `{"version":2,"events":0}` + "\n",
	"truncated":       `{"version":1,"events":2}` + "\n" + `{"offset_ms":0,"prim":"AR","m":1,"n":1,"k":1}` + "\n",
	"overcounted":     `{"version":1,"events":0}` + "\n" + `{"offset_ms":0,"prim":"AR","m":1,"n":1,"k":1}` + "\n",
	"bad shape":       `{"version":1,"events":1}` + "\n" + `{"offset_ms":0,"prim":"AR","m":0,"n":1,"k":1}` + "\n",
	"missing prim":    `{"version":1,"events":1}` + "\n" + `{"offset_ms":0,"m":1,"n":1,"k":1}` + "\n",
	"negative offset": `{"version":1,"events":1}` + "\n" + `{"offset_ms":-5,"prim":"AR","m":1,"n":1,"k":1}` + "\n",
	"out of order":    `{"version":1,"events":2}` + "\n" + `{"offset_ms":10,"prim":"AR","m":1,"n":1,"k":1}` + "\n" + `{"offset_ms":5,"prim":"AR","m":1,"n":1,"k":1}` + "\n",
	"bad imbalance":   `{"version":1,"events":1}` + "\n" + `{"offset_ms":0,"prim":"A2A","m":1,"n":1,"k":1,"imbalance":0.5}` + "\n",
	"not json":        `{"version":1,"events":1}` + "\n" + "not json\n",
	"header not json": "nope\n",
	"huge count":      `{"version":1,"events":4611686018427387904}` + "\n",
}

func TestReadTraceStrict(t *testing.T) {
	for name, raw := range invalidTraces {
		if _, err := ReadTrace(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadTrace accepted an invalid trace", name)
		}
	}
}

// FuzzReadTrace holds ReadTrace to its contract on any input: it never
// panics, and a trace it accepts writes out and reads back as an equal
// trace, whose second writing is byte-identical to the first.
func FuzzReadTrace(f *testing.F) {
	for _, raw := range invalidTraces {
		f.Add([]byte(raw))
	}
	var valid bytes.Buffer
	if err := WriteTrace(&valid, Synth(SynthConfig{Seed: 1, Duration: 2 * time.Second, QPS: 40})); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteTrace(&first, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted trace, written out, reads back with %v:\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("an accepted trace read back as\n%+v\nnot\n%+v", back, tr)
		}
		if err := WriteTrace(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("an accepted trace wrote\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestReplayOffersWholeTrace(t *testing.T) {
	var hits atomic.Int64
	tenantSeen := make(map[string]*atomic.Int64)
	tr := Synth(SynthConfig{Seed: 3, Duration: 2 * time.Second, QPS: 60})
	for _, tenant := range tr.Tenants() {
		tenantSeen[tenant] = &atomic.Int64{}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if c := tenantSeen[r.URL.Query().Get("tenant")]; c != nil {
			c.Add(1)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	rep, err := Replay(context.Background(), ReplayOptions{Target: srv.URL, Client: srv.Client()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != uint64(len(tr.Events)) {
		t.Fatalf("sent %d of %d events", rep.Sent, len(tr.Events))
	}
	if rep.Errors != 0 {
		t.Fatalf("replay reported %d errors against an always-200 server", rep.Errors)
	}
	if int64(rep.Sent) != hits.Load() {
		t.Fatalf("report says %d sent, server saw %d", rep.Sent, hits.Load())
	}
	for tenant, c := range tenantSeen {
		if got := rep.PerTenant[tenant].Sent; got != uint64(c.Load()) {
			t.Fatalf("tenant %s: report %d, server %d", tenant, got, c.Load())
		}
	}
}

func TestReplayCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()
	tr := Trace{Events: []TraceEvent{
		{Tenant: "t", Prim: "AR", M: 1, N: 1, K: 1},
		{Tenant: "t", Prim: "AR", M: 1, N: 1, K: 1},
	}}
	rep, err := Replay(context.Background(), ReplayOptions{Target: srv.URL, Client: srv.Client()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 2 || rep.PerTenant["t"].Errors != 2 {
		t.Fatalf("errors = %d (tenant: %d); want 2", rep.Errors, rep.PerTenant["t"].Errors)
	}
}

func TestReplayCancellation(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	defer close(release)

	events := make([]TraceEvent, 100)
	for i := range events {
		events[i] = TraceEvent{Tenant: "t", Prim: "AR", M: 1, N: 1, K: 1}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	// MaxInflight 2 against a stalled server: the replay must park on the
	// semaphore and still return promptly once ctx is cancelled.
	done := make(chan struct{})
	var rep Report
	var err error
	go func() {
		rep, err = Replay(ctx, ReplayOptions{Target: srv.URL, Client: srv.Client(), MaxInflight: 2}, Trace{Events: events})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled replay did not return")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if rep.Sent >= uint64(len(events)) {
		t.Fatalf("cancelled replay claims it sent all %d events", rep.Sent)
	}
}

func TestReplayPacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	tr := Trace{Events: []TraceEvent{
		{OffsetMs: 0, Prim: "AR", M: 1, N: 1, K: 1},
		{OffsetMs: 400, Prim: "AR", M: 1, N: 1, K: 1},
	}}
	// Speedup 2: the 400ms trace should take about 200ms.
	start := time.Now()
	if _, err := Replay(context.Background(), ReplayOptions{Target: srv.URL, Client: srv.Client(), Speedup: 2}, tr); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("speedup-2 replay of a 400ms trace finished in %v; pacing is not applied", el)
	}
	// Speedup 0: no pacing, should be near-instant.
	start = time.Now()
	if _, err := Replay(context.Background(), ReplayOptions{Target: srv.URL, Client: srv.Client()}, tr); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("unpaced replay took %v", el)
	}
}
