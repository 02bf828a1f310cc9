package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
)

// postSweepAccept posts a sweep request with an explicit Accept header.
func postSweepAccept(t *testing.T, url, accept string, req SweepRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if accept != "" {
		hreq.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeFrames drains an NDJSON sweep stream into its frame sequence.
func decodeFrames(t *testing.T, resp *http.Response) []SweepFrame {
	t.Helper()
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var frames []SweepFrame
	for dec.More() {
		var fr SweepFrame
		if err := dec.Decode(&fr); err != nil {
			t.Fatalf("decoding frame %d: %v", len(frames), err)
		}
		frames = append(frames, fr)
	}
	return frames
}

// The v2 stream: a client sending Accept: application/x-ndjson gets one
// result frame per item, indices ascending, each labeled with its fidelity,
// then a terminal done frame counting them — and the streamed results are
// byte-identical to the buffered v1 reply over the same chunk.
func TestHandlerSweepStreamsV2Frames(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
	}
	resp := postSweepAccept(t, srv.URL, ContentTypeNDJSON, SweepRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeNDJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentTypeNDJSON)
	}
	frames := decodeFrames(t, resp)
	if len(frames) != len(items)+1 {
		t.Fatalf("%d frames for %d items, want one per item plus done", len(frames), len(items))
	}
	results := make([]SweepResult, len(items))
	for i, fr := range frames[:len(items)] {
		if fr.Frame != FrameResult || fr.Result == nil {
			t.Fatalf("frame %d = %+v, want a result frame", i, fr)
		}
		if fr.Index != i {
			t.Fatalf("frame %d carries index %d; flat chunks stream in ascending order", i, fr.Index)
		}
		if fr.Fidelity != FidelityDES || fr.Result.Fidelity != FidelityDES {
			t.Fatalf("frame %d fidelity = %q/%q, want %q on both the frame and the result",
				i, fr.Fidelity, fr.Result.Fidelity, FidelityDES)
		}
		results[i] = *fr.Result
	}
	done := frames[len(items)]
	if done.Frame != FrameDone || done.Count != len(items) {
		t.Fatalf("terminal frame = %+v, want done counting %d", done, len(items))
	}

	// v1 and v2 must be the same results on the wire, byte for byte.
	ref, err := s.CollectSweep(context.Background(), SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed results diverge from the buffered CollectSweep reply")
	}
}

// Protocol negotiation: the stream engages on either the Accept header or
// the request's "stream" field, and a plain v1 POST keeps getting the
// buffered JSON body it always got.
func TestHandlerSweepStreamNegotiation(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	items := []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR"}}

	// v1: no Accept, no stream field — buffered JSON.
	resp := postSweepAccept(t, srv.URL, "", SweepRequest{Items: items})
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("v1 Content-Type = %q, want application/json", ct)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Results) != 1 {
		t.Fatalf("v1 reply carries %d results, want 1", len(sr.Results))
	}

	// v2 via the body field, no Accept header.
	resp = postSweepAccept(t, srv.URL, "", SweepRequest{Stream: true, Items: items})
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeNDJSON {
		t.Fatalf("stream:true Content-Type = %q, want %q", ct, ContentTypeNDJSON)
	}
	frames := decodeFrames(t, resp)
	if len(frames) != 2 || frames[0].Frame != FrameResult || frames[1].Frame != FrameDone {
		t.Fatalf("stream:true frames = %+v, want result+done", frames)
	}

	// v2 via an Accept list that merely includes ndjson.
	resp = postSweepAccept(t, srv.URL, "application/json, "+ContentTypeNDJSON, SweepRequest{Items: items})
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeNDJSON {
		t.Fatalf("Accept-list Content-Type = %q, want %q", ct, ContentTypeNDJSON)
	}
	resp.Body.Close()
}

// A chunk failing mid-stream has already committed its 200: the failure
// arrives as a terminal error frame carrying the salvage count, the failing
// item's index, and the retryable classification — here an internal tuner
// failure (5xx-equivalent, retryable) after one item completed.
func TestHandlerSweepStreamErrorFrameCarriesSalvage(t *testing.T) {
	s := testService(t)
	var tunes atomic.Int64
	s.tuneHook = func() error {
		if tunes.Add(1) >= 2 {
			return errors.New("injected crash on the second tune")
		}
		return nil
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"}, // distinct shape: second tune fails
	}
	resp := postSweepAccept(t, srv.URL, ContentTypeNDJSON, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; a v2 stream commits 200 before executing", resp.StatusCode)
	}
	frames := decodeFrames(t, resp)
	if len(frames) != 2 {
		t.Fatalf("%d frames, want the salvaged result plus the error frame", len(frames))
	}
	if frames[0].Frame != FrameResult || frames[0].Index != 0 {
		t.Fatalf("frame 0 = %+v, want item 0's salvaged result", frames[0])
	}
	ef := frames[1]
	if ef.Frame != FrameError || ef.Error == nil {
		t.Fatalf("terminal frame = %+v, want an error frame", ef)
	}
	if ef.Salvaged != 1 {
		t.Fatalf("salvaged = %d, want 1", ef.Salvaged)
	}
	if !ef.Error.Retryable {
		t.Fatal("internal failure not marked retryable in the error frame")
	}
	if ef.Error.Index == nil || *ef.Error.Index != 1 {
		t.Fatalf("error frame index = %v, want 1", ef.Error.Index)
	}
	if !strings.Contains(ef.Error.Message, "injected crash") {
		t.Fatalf("error frame %q does not name the cause", ef.Error.Message)
	}
}

// Deterministic rejections keep their classification on the stream: a bad
// item yields an error frame with retryable=false, so a ring client rebuilds
// the same non-retryable QueryError a 4xx status used to carry.
func TestHandlerSweepStreamErrorFrameNonRetryable(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 0, N: 8192, K: 4096, Prim: "AR"}, // deterministic rejection
	}
	resp := postSweepAccept(t, srv.URL, ContentTypeNDJSON, SweepRequest{Items: items})
	frames := decodeFrames(t, resp)
	if len(frames) != 2 {
		t.Fatalf("%d frames, want item 0's result plus the error frame", len(frames))
	}
	ef := frames[1]
	if ef.Frame != FrameError || ef.Error == nil {
		t.Fatalf("terminal frame = %+v, want an error frame", ef)
	}
	if ef.Error.Retryable {
		t.Fatal("deterministic rejection marked retryable on the stream")
	}
	if ef.Error.Index == nil || *ef.Error.Index != 1 {
		t.Fatalf("error frame index = %v, want 1", ef.Error.Index)
	}
	if ef.Salvaged != 1 {
		t.Fatalf("salvaged = %d, want item 0 delivered before the rejection", ef.Salvaged)
	}
}

// A mixed-fidelity chunk streams too: both tiers' frames arrive (analytic
// keepers and DES winners), every frame labeled, and the merged stream is
// byte-identical to the buffered mixed reply.
func TestHandlerSweepStreamsMixedFidelity(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	var items []SweepItem
	for _, m := range []int{1024, 2048, 4096, 8192} {
		for _, k := range []int{4096, 8192} {
			items = append(items, SweepItem{M: m, N: 8192, K: k, Prim: "AR"})
		}
	}
	resp := postSweepAccept(t, srv.URL, ContentTypeNDJSON, SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items})
	frames := decodeFrames(t, resp)
	if frames[len(frames)-1].Frame != FrameDone {
		t.Fatalf("terminal frame = %+v, want done", frames[len(frames)-1])
	}
	results := make([]SweepResult, len(items))
	seen := make([]bool, len(items))
	nDES, nAnalytic := 0, 0
	for _, fr := range frames[:len(frames)-1] {
		if fr.Frame != FrameResult || fr.Result == nil {
			t.Fatalf("frame %+v, want a result frame", fr)
		}
		if seen[fr.Index] {
			t.Fatalf("index %d streamed twice", fr.Index)
		}
		seen[fr.Index] = true
		if fr.Fidelity != fr.Result.Fidelity {
			t.Fatalf("frame fidelity %q disagrees with its result's %q", fr.Fidelity, fr.Result.Fidelity)
		}
		switch fr.Fidelity {
		case FidelityDES:
			nDES++
		case FidelityAnalytic:
			nAnalytic++
		default:
			t.Fatalf("frame labeled %q", fr.Fidelity)
		}
		results[fr.Index] = *fr.Result
	}
	if nDES == 0 || nAnalytic == 0 {
		t.Fatalf("mixed stream carried %d des and %d analytic frames; both tiers must appear", nDES, nAnalytic)
	}
	ref, err := s.CollectSweep(context.Background(), SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mixed stream diverges from the buffered CollectSweep reply")
	}
}

// A result frame carries what its execution measured and nothing that
// follows from it: every group is exactly {Bytes, SignalAt, CommEnd} (its
// number is its index, its extent follows from Partition and WaveSize),
// and an untraced result has no Trace key. The 17-group analytic frame of a
// 4-GPU M4096-N8192-K4096 AllReduce was 1956 bytes when groups restated
// their number, waves and tiles.
func TestResultFrameCarriesMeasurementsOnly(t *testing.T) {
	s, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	st := NewSweepStream[SweepResult](rec)
	req := SweepRequest{Items: []SweepItem{{M: 4096, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityAnalytic}}}
	if err := s.SweepChunk(context.Background(), req, st.Result); err != nil {
		t.Fatal(err)
	}
	frame, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
	if len(frame) > 1400 {
		t.Fatalf("result frame is %d bytes, want at most 1400: %s", len(frame), frame)
	}
	var fr struct {
		Result struct {
			Result map[string]json.RawMessage `json:"result"`
		} `json:"result"`
	}
	if err := json.Unmarshal(frame, &fr); err != nil {
		t.Fatal(err)
	}
	res := fr.Result.Result
	if _, ok := res["Trace"]; ok {
		t.Fatalf("untraced result sends a Trace key: %s", frame)
	}
	var groups []map[string]json.RawMessage
	if err := json.Unmarshal(res["Groups"], &groups); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 17 {
		t.Fatalf("%d groups, want 17 (one per wave)", len(groups))
	}
	for g, gt := range groups {
		_, b := gt["Bytes"]
		_, sig := gt["SignalAt"]
		_, end := gt["CommEnd"]
		if len(gt) != 3 || !b || !sig || !end {
			t.Fatalf("group %d carries %d keys, want exactly Bytes, SignalAt and CommEnd: %s", g, len(gt), res["Groups"])
		}
	}
}

// The first result frame leaves at once: the client reads it while the
// chunk's next item is still stalled in its tune, with no later frame and
// no end of reply to push it out of net/http's buffer.
func TestSweepStreamFlushesFirstResultFrame(t *testing.T) {
	s := testService(t)
	var tunes atomic.Int64
	release := make(chan struct{})
	s.tuneHook = func() error {
		if tunes.Add(1) == 2 {
			<-release
		}
		return nil
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Were the first frame held back, nothing would reach the client
	// until the stall ended; the timer ends it, so the test fails instead
	// of hanging.
	stall := time.AfterFunc(10*time.Second, func() { close(release) })
	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"}, // its tune stalls
	}
	resp := postSweepAccept(t, srv.URL, ContentTypeNDJSON, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if !stall.Stop() {
		t.Fatal("the first result frame reached the client only after the stall ended")
	}
	close(release)
	var fr SweepFrame
	if err != nil || DecodeSweepFrame(line, &fr) != nil || fr.Frame != FrameResult || fr.Index != 0 {
		t.Fatalf("first line %q (%v), want item 0's result frame", line, err)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(rest, []byte("\n")); n != 2 || !bytes.HasPrefix(rest, []byte(`{"frame":"result","index":1,`)) {
		t.Fatalf("after the first frame: %q, want item 1's result frame and the done frame", rest)
	}
}

// writeCounter counts the writes to the connections its listener accepts,
// and the bytes they carry.
type writeCounter struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l *writeCounter
}

func (c countedConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// A 64-frame chunk reply leaves in a few socket writes, not one per frame.
// Only the first frame is flushed on its own; the rest leave as net/http's
// buffers fill, and with the end of the reply. Every write but the first
// and the last then carries at least the 2 KB of net/http's response
// buffer.
func TestSweepStreamBatchesFrameWrites(t *testing.T) {
	s := testService(t)
	counter := &writeCounter{}
	srv := httptest.NewUnstartedServer(Handler(s))
	counter.Listener = srv.Listener
	srv.Listener = counter
	srv.Start()
	defer srv.Close()

	var items []SweepItem
	for _, m := range []int{512, 1024, 2048, 3072, 4096, 6144, 8192, 16384} {
		for _, k := range []int{1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384} {
			items = append(items, SweepItem{M: m, N: 8192, K: k, Prim: "AR", Fidelity: FidelityAnalytic})
		}
	}
	resp := postSweepAccept(t, srv.URL, ContentTypeNDJSON, SweepRequest{Items: items})
	frames := decodeFrames(t, resp)
	if len(frames) != len(items)+1 || frames[len(items)].Frame != FrameDone {
		t.Fatalf("%d frames, want %d results and done", len(frames), len(items))
	}
	writes, sent := counter.writes.Load(), counter.bytes.Load()
	if limit := 2 + sent/2048; writes > limit {
		t.Fatalf("%d frames left in %d writes of %d bytes, want at most %d", len(frames), writes, sent, limit)
	}
	t.Logf("%d frames left in %d writes of %d bytes", len(frames), writes, sent)
}
