package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
)

// Per-item fidelity must survive the HTTP round-trip: a chunk can carry both
// tiers at once (as a mixed-fidelity coordinator dispatches them), every
// result echoes the backend that produced it, and the /stats counters split
// the swept items by fidelity.
func TestHandlerSweepPerItemFidelity(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityAnalytic},
		{M: 4096, N: 8192, K: 8192, Prim: "AR", Fidelity: FidelityDES},
		{M: 4096, N: 8192, K: 4096, Prim: "AR"}, // "" inherits the request default (DES)
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
	wantFid := []string{FidelityAnalytic, FidelityDES, FidelityDES}
	for i, res := range sr.Results {
		if res.Fidelity != wantFid[i] || string(res.Result.Fidelity) != wantFid[i] {
			t.Fatalf("result %d labeled (%q, %q), want %q", i, res.Fidelity, res.Result.Fidelity, wantFid[i])
		}
		if res.Result.Latency <= 0 {
			t.Fatalf("result %d has no latency", i)
		}
	}
	st := s.Stats()
	if st.SweptItemsAnalytic != 1 || st.SweptItemsDES != 2 {
		t.Fatalf("swept split = (%d analytic, %d des), want (1, 2)", st.SweptItemsAnalytic, st.SweptItemsDES)
	}

	// A request-level default applies to unlabeled items only.
	resp2 := postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityAnalytic}, Items: []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR", Fidelity: FidelityDES},
	}})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request-default status = %d", resp2.StatusCode)
	}
	var sr2 SweepResponse
	if err := json.NewDecoder(resp2.Body).Decode(&sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Results[0].Fidelity != FidelityAnalytic || sr2.Results[1].Fidelity != FidelityDES {
		t.Fatalf("request-default labels = (%q, %q), want (analytic, des)", sr2.Results[0].Fidelity, sr2.Results[1].Fidelity)
	}
}

// A request-level mixed sweep runs the whole posted grid analytically, ranks
// per cell, confirms the top-k at DES, and splices — one replica answering
// the same wire request a router-proxied fleet would, byte-identically to
// the in-process SweepChunk and, label for label, to the reference
// engine.MixedBatch over the same grid.
func TestHandlerSweepMixed(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
	}
	resp := postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items})
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
	nDES, nAnalytic := 0, 0
	for i, res := range sr.Results {
		switch res.Fidelity {
		case FidelityDES:
			nDES++
		case FidelityAnalytic:
			nAnalytic++
		default:
			t.Fatalf("result %d labeled %q", i, res.Fidelity)
		}
	}
	if nDES == 0 || nAnalytic == 0 {
		t.Fatalf("mixed sweep produced %d des and %d analytic results; both tiers must appear", nDES, nAnalytic)
	}
	ref, err := s.CollectSweep(context.Background(), SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(sr.Results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mixed sweep diverges from the in-process SweepChunk after the HTTP round-trip")
	}

	runs := make([]core.Options, len(items))
	for i, it := range items {
		runs[i] = core.Options{Plat: s.cfg.Plat, NGPUs: s.cfg.NGPUs, Shape: it.Shape(), Prim: hw.AllReduce}
	}
	refRes, _, err := engine.New(0, 0).MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	replied := make([]*core.Result, len(sr.Results))
	for i, res := range sr.Results {
		if res.Fidelity != string(refRes[i].Fidelity) {
			t.Fatalf("result %d labeled %q, engine.MixedBatch ran it at %q", i, res.Fidelity, refRes[i].Fidelity)
		}
		replied[i] = res.Result
	}
	got, err = json.Marshal(replied)
	if err != nil {
		t.Fatal(err)
	}
	want, err = json.Marshal(refRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replica's mixed reply diverges from engine.MixedBatch")
	}
}

// A mixed chunk is all-or-nothing: a bad item fails the chunk before any
// result leaves — no v1 results ride along with the error, and no result
// frame precedes the v2 error frame — and the error names the bad item.
func TestHandlerSweepMixedBadItemEmitsNothing(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 0, N: 8192, K: 4096, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
	}
	req := SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items}

	resp := postSweep(t, srv.URL, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("v1 status = %d, want 422", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if body := env.Error; len(body.Results) != 0 {
		t.Fatalf("v1 error carries %d results, want none", len(body.Results))
	} else if body.Index == nil || *body.Index != 3 {
		t.Fatalf("v1 error index = %v, want 3", body.Index)
	}

	frames := decodeFrames(t, postSweepAccept(t, srv.URL, ContentTypeNDJSON, req))
	if len(frames) != 1 || frames[0].Frame != FrameError {
		t.Fatalf("v2 frames %+v, want a lone error frame", frames)
	}
	if ef := frames[0]; ef.Salvaged != 0 || ef.Error.Index == nil || *ef.Error.Index != 3 {
		t.Fatalf("v2 error frame %+v (index %v), want salvaged 0 and index 3", ef, ef.Error.Index)
	}
}

// Fidelity misuse is a deterministic rejection (4xx): unknown labels, the
// "mixed" policy on an individual item, and pre-labeled items under a mixed
// request would all fail identically on every replica, so none may read as
// retryable.
func TestHandlerSweepFidelityRejections(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	for name, req := range map[string]SweepRequest{
		"unknown request fidelity": {SweepSpec: SweepSpec{Fidelity: "nope"}, Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR"}}},
		"unknown item fidelity":    {Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: "nope"}}},
		"mixed as item fidelity":   {Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityMixed}}},
		"pre-labeled under mixed":  {SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityDES}}},
	} {
		resp := postSweep(t, srv.URL, req)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status = %d, want 4xx", name, resp.StatusCode)
		}
		resp.Body.Close()
		chunk, err := s.CollectSweep(context.Background(), req)
		if err == nil {
			t.Errorf("%s: in-process SweepChunk accepted", name)
		} else if !IsBadQuery(err) {
			t.Errorf("%s: error %v is not a bad-query rejection", name, err)
		}
		if len(chunk) != 0 {
			t.Errorf("%s: rejection returned %d results", name, len(chunk))
		}
	}
}

// Analytic execution refuses variant knobs it cannot model rather than
// silently mispredicting them — here, through the serve layer's own engine.
func TestAnalyticRejectsUnmodeledVariants(t *testing.T) {
	s := testService(t)
	if _, err := s.eng.Exec(context.Background(), core.Options{
		Plat: s.cfg.Plat, NGPUs: s.cfg.NGPUs,
		Shape: warmShapes[0], Prim: hw.AllReduce,
		Fidelity: core.FidelityAnalytic, Trace: true,
	}); err == nil {
		t.Fatal("analytic execution accepted a trace request")
	}
}
