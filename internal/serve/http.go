package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gemm"
)

// QueryResponse is the JSON shape of a /query reply.
type QueryResponse struct {
	Shape       string `json:"shape"`
	Primitive   string `json:"primitive"`
	Partition   []int  `json:"partition"`
	Waves       int    `json:"waves"`
	PredictedNs int64  `json:"predicted_ns"`
	Source      string `json:"source"`
}

// ContentTypeNDJSON is the media type of a v2 /sweep frame stream:
// newline-delimited JSON, one SweepFrame per line. A client requests it via
// the Accept header (or the request body's stream field). Every server in
// this repository answers that negotiation with v2, so shard.HTTPClient
// reads a 200 reply to it as a frame stream.
const ContentTypeNDJSON = "application/x-ndjson"

// SweepFrame kinds. A v2 stream is any number of result frames followed by
// exactly one terminal frame — done on success, error on failure.
const (
	FrameResult = "result"
	FrameDone   = "done"
	FrameError  = "error"
)

// Frame is one NDJSON line of a v2 /sweep stream, generic over the result
// type so the router's attributed results ride the same grammar as a
// replica's: SweepStream writes both.
type Frame[R any] struct {
	// Frame discriminates the line: FrameResult, FrameDone, or FrameError.
	Frame string `json:"frame"`
	// Index is a result frame's item index into the posted grid. (With
	// omitempty an index of 0 is elided; decoders zero-default it back.)
	Index int `json:"index,omitempty"`
	// Fidelity mirrors Result.Fidelity on result frames, so stream
	// consumers can split tiers without opening the result object.
	Fidelity string `json:"fidelity,omitempty"`
	Result   *R     `json:"result,omitempty"`
	// Count is a done frame's total number of result frames streamed.
	Count int `json:"count,omitempty"`
	// Salvaged is an error frame's count of result frames streamed before
	// the failure — results the consumer may keep (partial-chunk salvage);
	// only the unanswered remainder needs re-dispatching.
	Salvaged int `json:"salvaged,omitempty"`
	// Error is an error frame's structured failure, the same envelope body
	// non-streaming endpoints wrap under {"error": ...}.
	Error *ErrorBody `json:"error,omitempty"`
}

// SweepFrame is a replica's frame. Decoding a router's stream into it drops
// the routing attribution and keeps everything else.
type SweepFrame = Frame[SweepResult]

// ErrorBody is the one error schema every endpoint speaks — /query, /sweep,
// /stats, /healthz, the router's proxied forms, and v2 error frames —
// replacing the ad-hoc per-endpoint shapes (bare {"error": string},
// {"error", "index"}, {"error", "index", "results"}).
type ErrorBody struct {
	Message string `json:"message"`
	// Retryable mirrors the status-class split: false for deterministic
	// request rejections (4xx — every replica rejects identically, so
	// routers must not fail over), true for replica-specific failures
	// (5xx — another replica may be healthy). Stream consumers rely on it:
	// an error frame arrives after the 200 status line, so the flag is the
	// only classification left on the wire.
	Retryable bool `json:"retryable"`
	// Index is the failing item's index for /sweep failures (into the
	// posted grid); nil when the failure is not attributable to an item.
	Index *int `json:"index,omitempty"`
	// Results is the completed prefix of a buffered (v1) /sweep failure —
	// partial-chunk salvage riding along with the error. A v2 stream has
	// already delivered the salvage as result frames and reports only the
	// Salvaged count.
	Results []SweepResult `json:"results,omitempty"`
}

// ErrorEnvelope is the JSON error reply of every non-streaming endpoint:
// {"error": {"message", "retryable", ...}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// WriteError writes the unified error envelope with the given status,
// deriving Retryable from the status class. Exported so the shard router's
// endpoints reply byte-identically to a replica's.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteErrorBody(w, status, ErrorBody{Message: err.Error(), Retryable: status >= 500})
}

// WriteErrorBody writes a fully caller-built error envelope (for /sweep
// failures carrying an item index or a salvage prefix).
func WriteErrorBody(w http.ResponseWriter, status int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: body})
}

// StreamRequested reports whether a /sweep request negotiated the v2 NDJSON
// stream: an Accept header naming ContentTypeNDJSON, or the decoded
// request's Stream field. Exported so the router's proxy negotiates
// identically to a replica.
func StreamRequested(r *http.Request, req SweepRequest) bool {
	return req.Stream || strings.Contains(r.Header.Get("Accept"), ContentTypeNDJSON)
}

// ReadSweepRequest reads a POST /sweep request for a replica and for the
// router alike. The body must be exactly one JSON object, with nothing
// after it but whitespace, naming at least one item: a second request or
// trailing garbage is rejected, not silently dropped. On a rejection it
// writes the 405 or 400 reply and returns false.
func ReadSweepRequest(w http.ResponseWriter, r *http.Request) (SweepRequest, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: /sweep takes POST, got %s", r.Method))
		return SweepRequest{}, false
	}
	var req SweepRequest
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding sweep request: %w", err))
		return SweepRequest{}, false
	}
	if len(req.Items) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("serve: sweep request has no items"))
		return SweepRequest{}, false
	}
	return req, true
}

// Handler mounts the service on an HTTP mux:
//
//	GET  /query?m=4096&n=8192&k=8192&prim=AR[&imbalance=1.2]
//	POST /sweep   {"tune": bool, "items": [{"m","n","k","prim","imbalance"}, ...]}
//	GET  /stats
//	GET  /healthz
//
// All endpoints reply with JSON; errors reply with the unified envelope
// {"error": {"message", "retryable", ...}}. The status classifies the
// failure: 4xx for deterministic request rejections (every replica would
// reject the same request identically, so routers must not fail over), 5xx
// for internal failures (replica-specific — a router's failover ring
// retries them elsewhere).
//
// POST /sweep speaks two protocol versions. v1 (the default) buffers the
// whole chunk and replies a JSON SweepResponse; failures carry the failing
// item's chunk-local index plus the completed prefix under the envelope's
// "index"/"results", for direct clients. v2 — negotiated via "Accept:
// application/x-ndjson" or the request's "stream" field, as every
// coordinator does — replies an NDJSON stream of SweepFrame lines (see
// SweepStream), so neither side ever materializes a whole grid.
//
// /healthz is the liveness probe behind dead-replica re-admission: a 200
// means the process is up and serving. The handler is safe for concurrent
// use, like the service itself.
//
// Every request executes under a context derived from r.Context(), so a
// client that hangs up mid-/sweep stops the remaining chunk execution on
// the replica. Handler applies no additional deadline; HandlerWithTimeout
// adds one.
func Handler(s *Service) http.Handler { return HandlerWithTimeout(s, 0) }

// HandlerWithTimeout is Handler with a per-request execution deadline
// (cmd/serve's -request-timeout): each request's context is r.Context()
// plus, when timeout > 0, a deadline of that duration. A request that
// exceeds it is abandoned between items/events and answered with the
// retryable error envelope (or a v2 error frame carrying the salvage
// count); the warm /query fast path never consults the context and stays
// zero-alloc.
func HandlerWithTimeout(s *Service, timeout time.Duration) http.Handler {
	// reqCtx derives the request-scoped context. The warm fast path runs
	// before any call to it, so timed-out-but-warm queries still answer —
	// a cache hit is cheaper than an error reply.
	reqCtx := func(r *http.Request) (context.Context, context.CancelFunc) {
		if timeout <= 0 {
			return r.Context(), func() {}
		}
		return context.WithTimeout(r.Context(), timeout)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q, err := ParseQuery(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		// Warm fast path: a query whose exact key was tuned before is
		// answered from the pre-encoded reply bytes — no predictor, no
		// partition clone, no JSON encoder, and no context derivation. The
		// bytes are byte-identical to what the full path below would write.
		// The latency observation is an atomic bucket add (plus per-tenant
		// adds for an already-seen tenant), so recording here keeps the
		// path's zero-allocation contract — warm hits used to be invisible
		// to /stats latency, which skewed every percentile upward.
		if buf, ok := s.QueryEncoded(q); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(buf)
			s.ObserveQuery(q.Tenant, time.Since(start), true)
			return
		}
		ctx, cancel := reqCtx(r)
		defer cancel()
		ans, err := s.Query(ctx, q)
		if err != nil {
			status, body := errorReply(err)
			WriteErrorBody(w, status, body)
			return
		}
		writeJSON(w, QueryResponse{
			Shape:       q.Shape.String(),
			Primitive:   q.Prim.String(),
			Partition:   ans.Partition,
			Waves:       ans.Waves,
			PredictedNs: int64(ans.Predicted),
			Source:      ans.Source,
		})
		s.ObserveQuery(q.Tenant, time.Since(start), ans.Source == SourceCache)
	})
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		req, ok := ReadSweepRequest(w, r)
		if !ok {
			return
		}
		ctx, cancel := reqCtx(r)
		defer cancel()
		if StreamRequested(r, req) {
			st := NewSweepStream[SweepResult](w)
			st.End(s.SweepChunk(ctx, req, st.Result), errorReply)
			return
		}
		results, err := s.CollectSweep(ctx, req)
		if err != nil {
			// The completed prefix rides along for direct v1 clients
			// (partial-chunk salvage); coordinators negotiate v2 and
			// receive it as result frames instead.
			status, body := errorReply(err)
			body.Results = results
			WriteErrorBody(w, status, body)
			return
		}
		writeJSON(w, SweepResponse{Results: results})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness, not readiness: a process that can answer at all is
		// re-admittable — its caches rewarm through traffic.
		writeJSON(w, map[string]string{"status": "ok", "shard": s.cfg.Shard})
	})
	return mux
}

// SweepStream writes one v2 /sweep reply, for a replica and for the router
// alike: a result frame per result as it arrives, then one terminal frame.
// Each frame is one appendFrame line in a buffer the stream reuses. The
// 200 is committed before the sweep runs, so a failure's classification
// travels in the error frame's retryable bit, not in a status class.
type SweepStream[R sweepResult] struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte
	count   int
}

// NewSweepStream commits the reply's 200 and NDJSON content type.
func NewSweepStream[R sweepResult](w http.ResponseWriter) *SweepStream[R] {
	w.Header().Set("Content-Type", ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &SweepStream[R]{w: w, flusher: flusher}
}

func (st *SweepStream[R]) write(fr Frame[R]) error {
	st.buf = appendFrame(st.buf[:0], fr)
	_, err := st.w.Write(st.buf)
	return err
}

// Result writes one result frame: the sweep's sink. Only the first result
// frame is flushed, so a client sees the reply start at once. Later frames
// go to net/http's response buffer and reach the socket as it fills, and
// the rest with the end of the reply: a write per few kilobytes instead of
// one per frame. No consumer in this repository acts on a frame before its
// chunk ends (the coordinator releases a chunk's results when its dispatch
// returns), so holding frames costs it nothing. A replica that dies
// mid-chunk loses what net/http still holds, a few frames, and failover
// re-executes them with the rest of the chunk.
func (st *SweepStream[R]) Result(i int, res R) error {
	if err := st.write(Frame[R]{Frame: FrameResult, Index: i, Fidelity: res.frameFidelity(), Result: &res}); err != nil {
		return err
	}
	if st.count == 0 && st.flusher != nil {
		st.flusher.Flush()
	}
	st.count++
	return nil
}

// End writes the terminal frame for the sweep's outcome: done with the
// result count, or an error frame with the salvaged count and the body
// reply maps err to. It is not flushed: it leaves with the end of the
// reply, so a client reads both at once and can reuse its connection.
func (st *SweepStream[R]) End(err error, reply func(error) (int, ErrorBody)) {
	if err == nil {
		_ = st.write(Frame[R]{Frame: FrameDone, Count: st.count})
		return
	}
	// A sink (write) failure means the client is gone — writing the
	// terminal frame then fails identically and harmlessly.
	_, body := reply(err)
	_ = st.write(Frame[R]{Frame: FrameError, Salvaged: st.count, Error: &body})
}

// errorReply maps a Service error to its HTTP status and envelope body. A
// *ChunkError contributes its item index and is unwrapped to its cause. A
// deterministic request rejection is 422 and not retryable (failing over
// would repeat it); an internal failure is 500 and retryable (another
// replica may be healthy).
func errorReply(err error) (int, ErrorBody) {
	var body ErrorBody
	var ce *ChunkError
	if errors.As(err, &ce) {
		idx := ce.Index
		body.Index, err = &idx, ce.Err
	}
	status := http.StatusInternalServerError
	if IsBadQuery(err) {
		status = http.StatusUnprocessableEntity
	}
	body.Message, body.Retryable = err.Error(), status >= 500
	return status, body
}

// ParseQuery decodes a /query request's parameters. It is exported so the
// shard router's front-end parses (and rejects) queries exactly like a
// replica would, instead of forwarding garbage.
func ParseQuery(r *http.Request) (Query, error) {
	vals := r.URL.Query()
	dim := func(name string) (int, error) {
		v, err := strconv.Atoi(vals.Get(name))
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("serve: parameter %q must be a positive integer, got %q", name, vals.Get(name))
		}
		return v, nil
	}
	m, err := dim("m")
	if err != nil {
		return Query{}, err
	}
	n, err := dim("n")
	if err != nil {
		return Query{}, err
	}
	k, err := dim("k")
	if err != nil {
		return Query{}, err
	}
	primName := vals.Get("prim")
	if primName == "" {
		primName = "AR"
	}
	prim, err := ParsePrimitive(primName)
	if err != nil {
		return Query{}, err
	}
	var imbalance float64
	if raw := vals.Get("imbalance"); raw != "" {
		imbalance, err = strconv.ParseFloat(raw, 64)
		// !(x >= 1) also rejects NaN, which would otherwise poison the
		// shape cache (a NaN map key never matches itself).
		if err != nil || !(imbalance >= 1) || math.IsInf(imbalance, 1) {
			return Query{}, fmt.Errorf("serve: parameter \"imbalance\" must be a finite number >= 1, got %q", raw)
		}
	}
	tenant := vals.Get("tenant")
	if err := ValidateTenant(tenant); err != nil {
		return Query{}, err
	}
	return Query{Shape: gemm.Shape{M: m, N: n, K: k}, Prim: prim, Imbalance: imbalance, Tenant: tenant}, nil
}

// bufPool recycles the per-request encode buffers of writeJSON and
// encodeAnswer: request-scoped state the warm path must not allocate fresh
// per reply.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeReply renders v exactly like writeJSON puts it on the wire (two-space
// indent, trailing newline) into a pooled buffer. The caller must hand the
// buffer back via bufPool after copying or writing its bytes.
func encodeReply(v any) (*bytes.Buffer, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// encodeAnswer pre-renders the /query reply for a tuned key. Source is
// forced to SourceCache: the bytes answer future queries, which by
// definition hit the cache.
func encodeAnswer(q Query, ans Answer) ([]byte, error) {
	buf, err := encodeReply(QueryResponse{
		Shape:       q.Shape.String(),
		Primitive:   q.Prim.String(),
		Partition:   ans.Partition,
		Waves:       ans.Waves,
		PredictedNs: int64(ans.Predicted),
		Source:      SourceCache,
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	bufPool.Put(buf)
	return out, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding these fixed response types cannot fail; a broken connection
	// surfaces in the server's error log, not here.
	buf, err := encodeReply(v)
	if err != nil {
		return
	}
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}
