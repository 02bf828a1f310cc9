package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/sim"
)

// Wire-level fidelity labels. FidelityDES and FidelityAnalytic name the two
// execution backends (see core.Fidelity); FidelityMixed is a sweep-level
// policy — run the grid analytically, confirm the top-k per rank cell on
// the simulator — valid on a SweepRequest but never on an individual item
// or result, since every execution is ultimately one of the two backends.
const (
	FidelityDES      = string(core.FidelityDES)
	FidelityAnalytic = string(core.FidelityAnalytic)
	FidelityMixed    = "mixed"
)

// SweepItem is one (shape, primitive, imbalance) cell of a sweep chunk, in
// wire form: the body a sweep coordinator POSTs to a replica's /sweep.
type SweepItem struct {
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Prim      string  `json:"prim"`
	Imbalance float64 `json:"imbalance,omitempty"`
	// Fidelity selects this item's execution backend: "des", "analytic",
	// or "" to inherit the request's default. A mixed-fidelity coordinator
	// stamps items individually, so a chunk can carry both tiers.
	Fidelity string `json:"fidelity,omitempty"`
}

// Shape returns the item's GEMM shape (the coordinate the shard partitioner
// assigns ownership by).
func (it SweepItem) Shape() gemm.Shape { return gemm.Shape{M: it.M, N: it.N, K: it.K} }

// Query validates the wire item and converts it to a Query, applying the
// same rules ParseQuery applies to /query parameters (an empty primitive
// defaults to AllReduce).
func (it SweepItem) Query() (Query, error) {
	primName := it.Prim
	if primName == "" {
		primName = "AR"
	}
	prim, err := ParsePrimitive(primName)
	if err != nil {
		return Query{}, err
	}
	q := Query{Shape: it.Shape(), Prim: prim, Imbalance: it.Imbalance}
	if err := validateQuery(q); err != nil {
		return Query{}, err
	}
	return q, nil
}

// fidelity resolves the item's effective execution fidelity under the
// request-level default. Only the two backend fidelities are legal per
// item: "mixed" is a grid policy, not an execution.
func (it SweepItem) fidelity(requestDefault string) (core.Fidelity, error) {
	f := it.Fidelity
	if f == "" {
		f = requestDefault
	}
	switch f {
	case "", FidelityDES:
		return core.FidelityDES, nil
	case FidelityAnalytic:
		return core.FidelityAnalytic, nil
	case FidelityMixed:
		return "", badQueryf("serve: item fidelity %q is a sweep policy; items execute as %q or %q", f, FidelityDES, FidelityAnalytic)
	}
	return "", badQueryf("serve: unknown fidelity %q (want %q, %q, or %q)", f, FidelityDES, FidelityAnalytic, FidelityMixed)
}

// SweepSpec is the one options struct every sweep knob lives in — shared by
// the wire request, the shard coordinator, the router's /sweep proxy, and
// cmd/sweep's flags, so a knob added here is automatically forwarded at
// every hop instead of silently resetting to a default mid-path. The wire
// fields marshal inside SweepRequest's JSON body; the health fields are
// driver-local (marked json:"-"): a fleet's health windows belong to the
// fleet's operator, not to whichever remote client posts a sweep.
type SweepSpec struct {
	// Tune selects the tuned pipeline: each item is first answered through
	// Service.Query (shape cache, singleflight) and then executed once
	// with the tuned partition. When false, each item runs the untuned
	// per-wave baseline — a pure engine execution whose result is
	// deterministic and cache-history-free, so sharded sweeps merge
	// byte-identically to engine.Batch no matter which replica ran which
	// chunk. That is why a sharded coordinator lets an idle replica take
	// another shard's untuned chunks, and keeps tuned ones with their
	// owner.
	Tune bool `json:"tune,omitempty"`
	// Chunk and Attempts forward the sweeping coordinator's knobs. A
	// single replica ignores them (the posted Items already are one
	// chunk), but a router proxying /sweep for a whole fleet re-chunks
	// and re-dispatches with them instead of silently resetting the
	// caller's choices to defaults. Zero selects the proxy's defaults,
	// which keeps old clients byte-compatible on the wire.
	Chunk    int `json:"chunk,omitempty"`
	Attempts int `json:"attempts,omitempty"`
	// Fidelity is the default for items that do not carry their own label:
	// "des" (also the "" default), "analytic", or "mixed". Mixed runs the
	// posted grid analytically, ranks per quantized shape cell, and
	// re-runs the top TopK per cell on the simulator before replying —
	// items under a mixed request must not carry per-item labels.
	Fidelity string `json:"fidelity,omitempty"`
	// TopK bounds the per-cell DES confirmations of a mixed request;
	// <= 0 selects engine.DefaultTopK.
	TopK int `json:"topk,omitempty"`
	// RankQuantum is the mixed sweep's rank-cell edge in log2 units; <= 0
	// selects engine.DefaultRankQuantum.
	RankQuantum float64 `json:"rank_quantum,omitempty"`
	// Tenant is the sweep's optional accounting label, the /sweep analogue
	// of /query's tenant parameter: executed items count into the tenant's
	// swept_items in /stats. Purely attributive — it never affects what
	// executes — and forwarded hop by hop like every other spec field, so a
	// router proxy and the coordinator behind it attribute identically.
	Tenant string `json:"tenant,omitempty"`
	// HealthCooldown and ProbeInterval tune the driving coordinator's
	// health plane: how long a failed replica is benched, and how often
	// the background /healthz prober runs. Never serialized — a router
	// proxy applies its own fleet's windows, not a remote caller's.
	HealthCooldown time.Duration `json:"-"`
	ProbeInterval  time.Duration `json:"-"`
}

// SweepRequest is the JSON body of POST /sweep: one chunk of a (possibly
// fleet-wide) sweep grid, processed in order on the replica, plus the
// embedded SweepSpec knobs. The v1 body is unchanged field for field; the
// only addition is Stream, the in-body form of v2 protocol negotiation.
type SweepRequest struct {
	SweepSpec
	// Stream requests the v2 NDJSON frame-stream reply in the request body
	// itself — equivalent to sending "Accept: application/x-ndjson".
	// Absent (the v1 default) the reply is the buffered JSON SweepResponse,
	// byte-compatible with pre-v2 servers and clients.
	Stream bool        `json:"stream,omitempty"`
	Items  []SweepItem `json:"items"`
}

// SweepResult is one item's outcome: the partition the run used (tuned or
// per-wave default), the tuner's prediction when Tune was set, and the full
// deterministic execution result.
type SweepResult struct {
	Shape     string `json:"shape"`
	Primitive string `json:"primitive"`
	Partition []int  `json:"partition"`
	Waves     int    `json:"waves"`
	// Fidelity labels the backend that produced Result: "des" or
	// "analytic", mirroring Result.Fidelity for callers that only read
	// the wire envelope.
	Fidelity string `json:"fidelity"`
	// PredictedNs and Source are set only on tuned sweeps; Source is
	// SourceCache or SourceTuned, like a /query answer.
	PredictedNs int64        `json:"predicted_ns,omitempty"`
	Source      string       `json:"source,omitempty"`
	Result      *core.Result `json:"result"`
}

// SweepResponse is the buffered (v1) JSON reply of POST /sweep.
type SweepResponse struct {
	Results []SweepResult `json:"results"`
}

// ChunkError is the error SweepChunk returns: the failing item's index
// within the chunk plus the cause — the serve-side analogue of
// engine.RunError, letting a sweep coordinator translate the chunk-local
// index back to a global grid index. It classifies like its cause: a chunk
// that failed on a bad item satisfies IsBadQuery through Unwrap.
type ChunkError struct {
	Index int
	Err   error
}

func (e *ChunkError) Error() string { return fmt.Sprintf("chunk item %d: %v", e.Index, e.Err) }
func (e *ChunkError) Unwrap() error { return e.Err }

// SweepSink consumes one completed sweep result. index names the item the
// result answers (its position in the posted Items); a non-nil return
// aborts the chunk and surfaces verbatim from SweepChunk — the seam that
// lets an HTTP handler stop executing the moment its client hangs up.
type SweepSink func(index int, res SweepResult) error

// SweepChunk processes one sweep chunk in input order — serially, preserving
// the cache-warming locality a replica's owned slice is partitioned for —
// and emits each result into sink as it completes, so the chunk's memory
// footprint is O(1) results however long the chunk: the execution core of
// the v2 streaming wire protocol.
//
// Flat (single-tier) chunks emit in ascending index order; on failure,
// exactly the completed prefix [0, Index) has been emitted — the emitted
// results are the partial-chunk salvage — and the failing item's
// chunk-local index is reported as a *ChunkError. A request-level "mixed"
// fidelity runs SweepMixed over the posted grid; the tiers interleave, so a
// mixed chunk emits only once every result is final (still in ascending
// index order) and a failed mixed chunk emits nothing.
//
// Each item executes at its resolved fidelity (item label, else the
// request default): DES through a private deterministic simulator, analytic
// through the Algorithm 1 predictor over the engine's bandwidth-curve
// cache. Both are byte-identical no matter which replica of an identically
// configured fleet executes the chunk — the property that lets a
// coordinator re-dispatch chunks through the failover ring without
// perturbing the merged sweep.
//
// ctx cancellation stops the chunk between items (an in-flight DES item
// aborts between simulator events): the emitted prefix is the salvage, the
// chunk returns a *ChunkError wrapping the ctx error at the first
// unanswered index, and the unanswered remainder counts into
// cancelled_sweep_items (plus deadline_exceeded when the deadline caused
// it).
func (s *Service) SweepChunk(ctx context.Context, req SweepRequest, sink SweepSink) error {
	if err := ValidateTenant(req.Tenant); err != nil {
		return &ChunkError{Index: 0, Err: err}
	}
	emitted := 0
	counted := func(i int, res SweepResult) error {
		if err := sink(i, res); err != nil {
			return err
		}
		emitted++
		return nil
	}
	err := s.sweepChunk(ctx, req, counted)
	if err != nil {
		// Count via ctx.Err() as well as the returned error: a sink write
		// failure caused by the client hanging up races the loop's own ctx
		// check, and both must attribute the unanswered remainder.
		ctxErr := ctx.Err()
		if ctxErr != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if rest := len(req.Items) - emitted; rest > 0 {
				s.cancelledSweep.Add(uint64(rest))
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctxErr, context.DeadlineExceeded) {
				s.deadlineExceeded.Add(1)
			}
		}
	}
	return err
}

// sweepChunk dispatches on the request-level fidelity; SweepChunk wraps it
// to attribute cancelled items.
func (s *Service) sweepChunk(ctx context.Context, req SweepRequest, sink SweepSink) error {
	switch req.Fidelity {
	case "", FidelityDES, FidelityAnalytic:
		return s.sweepItems(ctx, req, indices(len(req.Items)), sink)
	case FidelityMixed:
		// The tiers interleave, so the reply waits for both: every result
		// in ascending order, or none.
		out := make([]SweepResult, len(req.Items))
		err := SweepMixed(req.SweepSpec, req.Items, func(idxs []int, fid string, emit func(int, SweepResult) error) error {
			tier := req
			tier.Fidelity = fid
			return s.sweepItems(ctx, tier, idxs, emit)
		}, func(i int, res SweepResult) error {
			out[i] = res
			return nil
		}, func(i int, err error) error {
			// The buffer never fails: err rejects a pre-labelled item.
			return &ChunkError{Index: i, Err: fmt.Errorf("serve: %w", err)}
		})
		if err != nil {
			return err
		}
		for i, res := range out {
			if err := sink(i, res); err != nil {
				return err
			}
		}
		return nil
	}
	return &ChunkError{Index: 0, Err: badQueryf("serve: unknown sweep fidelity %q (want %q, %q, or %q)", req.Fidelity, FidelityDES, FidelityAnalytic, FidelityMixed)}
}

// CollectSweep runs SweepChunk into a slice: the buffered (v1) form. On
// failure the completed prefix rides along with the error, preserving the
// partial-chunk salvage for callers that still materialize replies.
func (s *Service) CollectSweep(ctx context.Context, req SweepRequest) ([]SweepResult, error) {
	out := make([]SweepResult, 0, len(req.Items))
	err := s.SweepChunk(ctx, req, func(_ int, res SweepResult) error {
		out = append(out, res)
		return nil
	})
	return out, err
}

// sweepItems is the single-tier chunk loop: the items at idxs execute in
// order, each at its own resolved fidelity, and each result is emitted as
// soon as it completes. Results and failures name their item by its index
// in req.Items.
func (s *Service) sweepItems(ctx context.Context, req SweepRequest, idxs []int, sink SweepSink) error {
	for _, i := range idxs {
		it := req.Items[i]
		if err := ctx.Err(); err != nil {
			return &ChunkError{Index: i, Err: err}
		}
		q, err := it.Query()
		if err != nil {
			return &ChunkError{Index: i, Err: &BadQueryError{Err: err}}
		}
		fid, err := it.fidelity(req.Fidelity)
		if err != nil {
			return &ChunkError{Index: i, Err: err}
		}
		opts := core.Options{
			Plat:      s.cfg.Plat,
			NGPUs:     s.cfg.NGPUs,
			Shape:     q.Shape,
			Prim:      q.Prim,
			Imbalance: q.Imbalance,
			Fidelity:  fid,
		}
		res := SweepResult{Shape: q.Shape.String(), Primitive: q.Prim.String()}
		if req.Tune {
			ans, err := s.Query(ctx, q)
			if err != nil {
				return &ChunkError{Index: i, Err: err}
			}
			opts.Partition = ans.Partition
			res.PredictedNs = int64(ans.Predicted)
			res.Source = ans.Source
		}
		r, err := s.eng.Exec(ctx, opts)
		if err != nil {
			return &ChunkError{Index: i, Err: err}
		}
		s.countSwept(req.Tenant, r.Fidelity)
		res.Partition = r.Partition
		res.Waves = r.Waves
		res.Fidelity = string(r.Fidelity)
		res.Result = r
		if err := sink(i, res); err != nil {
			return err
		}
	}
	return nil
}

// indices returns 0, 1, ..., n-1: a whole grid's indices.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sweepResult is a sweep's result type: SweepResult, or a type embedding it
// (the coordinator's attributed result). It is what a v2 stream carries and
// what the mixed policy ranks.
type sweepResult interface {
	AppendJSON(b []byte) []byte
	frameFidelity() string
	latency() sim.Time
}

func (r SweepResult) frameFidelity() string { return r.Fidelity }
func (r SweepResult) latency() sim.Time     { return r.Result.Latency }

// SweepMixed is the mixed-fidelity sweep policy, the one copy a replica's
// mixed chunk and a coordinator's mixed sweep both run: reject an item that
// carries its own fidelity label, run the whole grid analytically, rank
// each engine.RankTopK cell by analytic latency, hand every unrefined
// result to sink, then run the top spec.TopK per cell at DES fidelity.
// Every index reaches sink exactly once: the unrefined ones in ascending
// order as soon as the ranking resolves, the refined ones as run reports
// them. Ranking is global over the grid, so the analytic tier is buffered,
// O(grid).
//
// run executes a tier: the grid items at idxs (ascending), each at
// fidelity fid, reporting every result to emit by its grid index as it
// completes. A replica runs the items in order on its engine; a
// coordinator dispatches them in chunks across its fleet. A failure of run
// returns as run named it, by grid index, so no caller translates an
// index. fail names the policy's own failures at grid index i in the
// caller's error convention: a pre-labelled item (a *BadQueryError) or a
// sink error during the hand-over.
//
// engine.MixedBatch implements the same policy over one engine and stays
// apart from this one: it is the reference the sharded paths are checked
// against.
func SweepMixed[R sweepResult](spec SweepSpec, items []SweepItem, run func(idxs []int, fid string, emit func(i int, res R) error) error, sink func(i int, res R) error, fail func(i int, err error) error) error {
	for i, it := range items {
		if it.Fidelity != "" {
			return fail(i, badQueryf("mixed sweep item carries fidelity %q; the mixed policy assigns fidelities itself", it.Fidelity))
		}
	}
	out := make([]R, len(items))
	err := run(indices(len(items)), FidelityAnalytic, func(i int, res R) error {
		out[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	shapes := make([]gemm.Shape, len(items))
	latencies := make([]sim.Time, len(items))
	for i, res := range out {
		shapes[i] = items[i].Shape()
		latencies[i] = res.latency()
	}
	refined := engine.RankTopK(shapes, latencies, spec.TopK, spec.RankQuantum)
	next := 0 // refined is ascending: refined[next] is the next one to skip
	for i, res := range out {
		if next < len(refined) && refined[next] == i {
			next++
			continue
		}
		if err := sink(i, res); err != nil {
			return fail(i, err)
		}
	}
	return run(refined, FidelityDES, sink)
}
