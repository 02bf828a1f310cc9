package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// DefaultChunkSize bounds the items per dispatched sweep chunk when the
// caller does not choose one. A chunk pays one round trip to its replica,
// so larger chunks amortize it over more items; most items are analytic
// executions of under a microsecond, which a round trip per few items
// would dwarf. A crash does not bound the size: partial-chunk salvage
// re-executes only the items the replica had not streamed back. What the
// size does bound:
//   - the late-binding tail: an idle replica takes whole chunks, and an
//     owner's first chunk is never taken;
//   - how long an eviction or a hand-back waits to take effect, since a
//     chunk re-resolves its owner only when it is dispatched;
//   - the results the coordinator holds per replica, O(chunk);
//   - a flat sweep's first result, which waits for its chunk.
//
// 64 is where measured sweeps stopped gaining: 128 and 256 ran no faster
// and would coarsen late binding further.
const DefaultChunkSize = 64

// SweepSpec is the one options struct every sweep knob lives in, shared
// with the wire layer (it is serve.SweepSpec): cmd/sweep's flags fill one,
// the router's /sweep proxy rebuilds one from the posted request, and
// Coordinator.request forwards its wire fields on every dispatched chunk —
// so a knob added to the spec is carried through every hop instead of
// silently resetting to a default at the first proxy.
type SweepSpec = serve.SweepSpec

// Coordinator drives a grid sweep across a replica fleet — the sharded
// engine.Batch, whose "engines" are cmd/serve processes reached over the
// Client interface (HTTPClients, or in-process LocalClients). It partitions
// the grid by shape ownership (each replica sweeps the slice of the
// (log M·N, log K) plane its caches are warm for), splits every shard's
// sub-grid into fixed-size chunks, dispatches them over /sweep, and streams
// results back — each item's result is released to the caller as its chunk
// completes, so the coordinator holds O(chunk) per replica, not O(grid), in
// flight.
//
// Dispatch binds chunks to replicas late. Each replica first runs its own
// shard's chunks in ascending order; once it has none left, a Healthy
// replica takes the last undispatched chunk of the shard with the most
// chunks left, so no replica idles while another works through a backlog.
// Only untuned sweeps take chunks (an untuned result is the same on any
// replica; a tuned one depends on its owner's shape cache), an owner's
// first chunk of a tier always goes to the owner, and a taken chunk's
// failover pass starts at the replica that took it. Taken chunks are
// counted by Taken, not by Redispatches.
//
// The coordinator survives replica churn mid-sweep: a chunk whose replica
// dies (connection refused, timeout, 5xx) is re-dispatched through the
// failover ring — origin+1, origin+2, ... — under a bounded attempt budget,
// instead of failing the sweep. The router's shared health plane makes the
// degraded path cheap and recoverable: a replica that failed is marked dead
// and skipped by every later chunk until its cooldown elapses (at most one
// probe timeout per replica per cooldown window, not one per chunk), a
// background /healthz prober re-admits a replica that restarts mid-sweep so
// it reclaims its owned shard, and a replica dead past the health plane's
// eviction window surrenders its ring ownership entirely — its cells
// rebalance to the survivors (chunks start dispatch there directly, no
// failover hop) until re-admission hands them back, mid-sweep included:
// every chunk re-resolves its owner against the current eviction state. A
// chunk that fails partway keeps whatever items its replica streamed back
// and re-dispatches only the unanswered rest. Untuned sweep results are
// deterministic and cache-history-free on any replica of an identically
// configured fleet, so neither taking nor re-dispatch can perturb the
// merged output. Deterministic rejections (4xx QueryErrors) are not
// retried: every replica would reject the chunk identically, and the
// failure is attributed to its global item index via the serve.ChunkError
// convention (the remote cousin of engine.RunError).
//
// A Coordinator is safe for concurrent Sweep/Stream calls; Spec and OnChunk
// must be set before the first call.
type Coordinator struct {
	router *Router

	// Spec carries every sweep knob: chunk size, attempt budget, tuned
	// pipeline, fidelity policy, rank-cell geometry, and the driver-local
	// health windows. Zero fields select the documented defaults.
	Spec SweepSpec
	// OnChunk, when set, observes every completed chunk as it lands —
	// per-chunk result streaming for progress reporting. A chunk whose
	// items were answered by more than one replica (partial-chunk
	// completion) is announced once per contiguous replica segment. It is
	// called from the per-replica sweep workers and must be safe for
	// concurrent use.
	OnChunk func(ChunkResult)

	redispatches atomic.Uint64
	taken        atomic.Uint64
	salvaged     atomic.Uint64
}

// ChunkResult announces one completed chunk (or, after a partial-chunk
// completion, one contiguous segment of it) to OnChunk.
type ChunkResult struct {
	// Shard owns the chunk: the ring owner at dispatch time. Origin is
	// the replica the chunk was sent to: Shard itself, or the idle
	// replica that took it from Shard's queue. Replica answered the
	// segment; it differs from Origin only after a re-dispatch through
	// the failover ring.
	Shard, Origin, Replica int
	// Indices are the segment's global item indices; Results[j] answers
	// Indices[j].
	Indices []int
	Results []serve.SweepResult
}

// SweepResult is one sweep item's outcome plus routing attribution: the
// shard that owned it (the ring owner at dispatch time) and the replica
// that actually executed it. They differ after a failover, and on a
// healthy fleet when an idle replica took the item's chunk.
type SweepResult struct {
	serve.SweepResult
	Owner   int `json:"owner"`
	Replica int `json:"replica"`
}

// AppendJSON appends r's canonical JSON, the bytes json.Marshal writes for
// it: the replica's result object with the attribution as its last
// members. It replaces the promoted serve.SweepResult.AppendJSON, which
// would drop the attribution.
func (r SweepResult) AppendJSON(b []byte) []byte {
	b = r.SweepResult.AppendJSON(b)
	b = strconv.AppendInt(append(b[:len(b)-1], `,"owner":`...), int64(r.Owner), 10)
	b = strconv.AppendInt(append(b, `,"replica":`...), int64(r.Replica), 10)
	return append(b, '}')
}

// StreamSink consumes merged sweep results as their chunks complete. index
// is the item's global position in the swept grid; within one chunk
// indices arrive in ascending order, across chunks they interleave by
// completion — an idle replica may finish a shard's last chunk before the
// shard's owner reaches its middle ones. A mixed sweep emits every
// unrefined result before any DES refinement.
// The coordinator serializes calls, so a sink writing one output stream
// needs no locking of its own; a non-nil return aborts the sweep.
type StreamSink func(index int, res SweepResult) error

// NewCoordinator builds a coordinator over the router's fleet, sharing its
// clients, ownership partitioner, health plane, and failover accounting.
func NewCoordinator(r *Router) *Coordinator {
	return &Coordinator{router: r}
}

// Redispatches counts chunks that left the replica they were sent to:
// chunks any of whose items were answered by a failover ring hop. A taken
// chunk answered by its taker is not a re-dispatch. The count is
// cumulative across Sweep calls.
func (c *Coordinator) Redispatches() uint64 { return c.redispatches.Load() }

// Taken counts completed chunks an idle replica took from another shard's
// queue (see Coordinator): chunks sent to a replica other than their
// owner because the owner still had a backlog. Cumulative across Sweep
// calls.
func (c *Coordinator) Taken() uint64 { return c.taken.Load() }

// PartialSalvages counts items whose results were kept from a chunk that
// failed partway — work the partial-chunk completion path did not have to
// re-execute. Cumulative across Sweep calls.
func (c *Coordinator) PartialSalvages() uint64 { return c.salvaged.Load() }

func (c *Coordinator) chunkSize() int {
	if c.Spec.Chunk <= 0 {
		return DefaultChunkSize
	}
	return c.Spec.Chunk
}

func (c *Coordinator) attempts() int {
	if c.Spec.Attempts <= 0 {
		return len(c.router.clients)
	}
	return c.Spec.Attempts
}

// request builds the wire chunk, forwarding the spec's coordinator knobs so
// a router proxying /sweep for this "replica" re-chunks with the caller's
// chunk size and attempt budget instead of silently resetting to defaults.
// The fidelity-policy fields stay off dispatched chunks: items are already
// stamped per-item, and forwarding "mixed" would make an inner proxy
// re-rank a sub-grid the coordinator has already ranked globally.
func (c *Coordinator) request(items []serve.SweepItem) serve.SweepRequest {
	return serve.SweepRequest{
		SweepSpec: serve.SweepSpec{Tune: c.Spec.Tune, Chunk: c.Spec.Chunk, Attempts: c.Spec.Attempts, Tenant: c.Spec.Tenant},
		Items:     items,
	}
}

// Sweep tunes/executes the whole grid across the fleet and merges the
// results back into input order: results[i] answers items[i], the
// same deterministic global order engine.Batch returns — the buffered form
// of Stream, for callers that want the materialized grid.
func (c *Coordinator) Sweep(ctx context.Context, items []serve.SweepItem) ([]SweepResult, error) {
	out := make([]SweepResult, len(items))
	err := c.Stream(ctx, items, func(i int, res SweepResult) error {
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream tunes/executes the whole grid across the fleet, emitting each
// item's result into sink as its chunk completes — the coordinator's
// bounded-memory sweep: at no point does it hold more than O(chunk) results
// per replica in flight. On failure the error with the lowest failing global
// item index is reported as "sweep item <index>: ...", regardless of which
// replicas finished first; results already emitted stay emitted (they are
// deterministic and final — a retrying caller may keep them).
//
// The Spec.Fidelity knob selects what executes: a flat sweep (every item at
// one backend fidelity, or each item's own label when Fidelity is "")
// dispatches the grid once; a mixed sweep runs serve.SweepMixed with the
// fleet as its tier executor, dispatching twice — the whole grid analytic,
// then the engine.RankTopK winners at DES — with both phases enjoying the
// same churn tolerance, partial-chunk salvage, and deterministic
// attribution. Mixed ranking is global, so the analytic tier is buffered
// O(grid) before any emission (inherent to the policy); analytic keepers
// emit as soon as ranking resolves and DES refinements stream as their
// chunks complete.
//
// Cancelling ctx tears the whole sweep down: every in-flight shard chunk's
// HTTP request is aborted (replicas observe the closed request body and
// abandon the chunk's remaining items), failover waits wake immediately,
// and the sweep returns ctx.Err() wrapped in the usual lowest-index
// attribution. Results already emitted stay emitted — a caller retrying
// after a deadline may keep the salvaged subset.
func (c *Coordinator) Stream(ctx context.Context, items []serve.SweepItem, sink StreamSink) error {
	// Apply the driver-local health windows before the prober starts (a
	// zero probe interval inherits the cooldown).
	if c.Spec.HealthCooldown > 0 {
		c.router.health.SetCooldown(c.Spec.HealthCooldown)
	}
	// Probe dead replicas in the background for the sweep's duration: a
	// replica that restarts mid-sweep is re-admitted — reclaiming its
	// owned shard, evicted cells included — instead of staying failed-over
	// until the sweep ends. The prober is shared and refcounted:
	// concurrent sweeps (and cmd/route's process-lifetime holder) share
	// one goroutine, and it outlives this sweep if anyone else still
	// holds it.
	stopProber := c.router.StartProber(ctx, c.Spec.ProbeInterval)
	defer stopProber()

	// Serialize the sink: per-replica workers emit concurrently, and the
	// natural consumer is a single output stream.
	var mu sync.Mutex
	locked := func(i int, res SweepResult) error {
		mu.Lock()
		defer mu.Unlock()
		return sink(i, res)
	}
	var err error
	switch c.Spec.Fidelity {
	case "", serve.FidelityDES, serve.FidelityAnalytic:
		all := make([]int, len(items))
		for i := range all {
			all[i] = i
		}
		err = c.sweepGrid(ctx, items, all, c.Spec.Fidelity, locked)
	case serve.FidelityMixed:
		err = serve.SweepMixed(c.Spec, items, func(idxs []int, fid string, emit func(int, SweepResult) error) error {
			return c.sweepGrid(ctx, items, idxs, fid, emit)
		}, locked, func(i int, err error) error {
			if serve.IsBadQuery(err) {
				err = &QueryError{Err: fmt.Errorf("shard: %w", err)}
			}
			return &fanError{At: i, Err: err}
		})
	default:
		return &QueryError{Err: fmt.Errorf("shard: unknown sweep fidelity %q (want %q, %q, or %q)", c.Spec.Fidelity, serve.FidelityDES, serve.FidelityAnalytic, serve.FidelityMixed)}
	}
	if err != nil {
		return fmt.Errorf("shard: sweep item %w", err)
	}
	return nil
}

// sweepGrid dispatches the grid items at idxs across the fleet, each
// stamped with fidelity fid ("" keeps the items' own labels) — the
// chunking, failover, and emit loop of every sweep, and of each tier of a
// mixed one. Items are bucketed by their current owner (the ring mapping
// with evicted replicas rebalanced away) and cut into chunks, one queue per
// owner (see chunkQueues). One worker per replica then drains the queues:
//   - it runs its own replica's chunks in ascending order, each dispatched
//     from its owner re-resolved at dispatch time, so an eviction or a
//     hand-back lands mid-sweep instead of waiting for the next one;
//   - with its own queue empty, a worker whose replica is Healthy takes the
//     last undispatched chunk of the owner with the most chunks left, and
//     dispatches it from itself. Only untuned sweeps take chunks: a tuned
//     answer depends on its owner's shape cache, an untuned one does not
//     (SweepSpec.Tune). A benched or evicted replica takes nothing; its
//     own chunks still fail over as usual;
//   - an owner's first chunk is never taken, so a dead owner is still
//     found by its own chunk: under a budget of one attempt, a sweep
//     holding any of a dead owner's cells fails, as it would without
//     taking;
//   - a taken chunk's ring pass starts at its taker. A pass skips benched
//     replicas without spending an attempt, and the taker is Healthy, so
//     taking spends no attempt the chunk would not have spent at its owner;
//   - a worker stops at its first failure.
//
// A chunk is a list of grid indices: results reach sink by grid index,
// and a failure surfaces as the raw *fanError naming the lowest failing
// grid index, for Stream's user-facing wrap. The lowest index is
// deterministic: every owner's queue runs as an ascending prefix by its
// own worker, so the chunk holding an owner's lowest failing item is
// always dispatched, by its owner or by a taker.
func (c *Coordinator) sweepGrid(ctx context.Context, items []serve.SweepItem, idxs []int, fid string, sink StreamSink) error {
	byOwner := make([][]int, len(c.router.clients))
	for _, i := range idxs {
		k := c.router.Owner(items[i].Shape())
		byOwner[k] = append(byOwner[k], i)
	}
	q := newChunkQueues(byOwner, c.chunkSize())
	return fanShards(len(byOwner), func(k int) (int, error) {
		for {
			chunk, taken := q.next(k, !c.Spec.Tune && c.router.health.State(k) == Healthy)
			if chunk == nil {
				return 0, nil
			}
			// Check between chunks, not mid-chunk: a cancelled sweep
			// stops dispatching new work here, while chunks already on
			// the wire are torn down by their own request contexts.
			if err := ctx.Err(); err != nil {
				return chunk[0], err
			}
			taker := -1
			if taken {
				taker = k
			}
			if at, err := c.runChunk(ctx, items, chunk, fid, taker, sink); err != nil {
				return at, err
			}
		}
	})
}

// runChunk dispatches one chunk and emits its results. taker is the replica
// that took the chunk from its owner's queue, or -1 when the chunk is its
// owner's own. On failure it returns the grid index the failure maps to.
func (c *Coordinator) runChunk(ctx context.Context, items []serve.SweepItem, chunk []int, fid string, taker int, sink StreamSink) (int, error) {
	sub := make([]serve.SweepItem, len(chunk))
	for j, gi := range chunk {
		sub[j] = items[gi]
		if fid != "" {
			sub[j].Fidelity = fid
		}
	}
	// Re-resolve the owner now, not at bucketing time: if this chunk's
	// owner was evicted since (dispatch starts at its ring successor) or
	// an evicted owner was re-admitted (dispatch hands the cells straight
	// back), the change takes effect mid-sweep.
	owner := c.router.Owner(items[chunk[0]].Shape())
	origin := owner
	if taker >= 0 {
		origin = taker
	}
	results, replicas, err := c.dispatch(ctx, origin, sub)
	if err != nil {
		// Attribute the failure to the item the replica named,
		// translated to its grid index; a chunk-level failure (budget
		// exhausted) pins to the chunk's first item.
		at := chunk[0]
		var ce *serve.ChunkError
		if errors.As(err, &ce) && ce.Index >= 0 && ce.Index < len(chunk) {
			at = chunk[ce.Index]
		}
		return at, err
	}
	if origin != owner {
		c.taken.Add(1)
	}
	for j := range chunk {
		if replicas[j] != origin {
			c.redispatches.Add(1)
			c.router.failovers.Add(1)
			break
		}
	}
	// Emit the chunk, then let it go: the merged stream holds O(chunk)
	// results per replica, never the grid.
	for j, gi := range chunk {
		if err := sink(gi, SweepResult{SweepResult: results[j], Owner: owner, Replica: replicas[j]}); err != nil {
			return gi, err
		}
	}
	if c.OnChunk != nil {
		// One announcement per contiguous replica segment; a chunk
		// answered whole by one replica is one segment.
		for lo := 0; lo < len(chunk); {
			hi := lo + 1
			for hi < len(chunk) && replicas[hi] == replicas[lo] {
				hi++
			}
			c.OnChunk(ChunkResult{Shard: owner, Origin: origin, Replica: replicas[lo], Indices: chunk[lo:hi], Results: results[lo:hi]})
			lo = hi
		}
	}
	return 0, nil
}

// chunkQueues holds one tier's undispatched chunks, a queue per owner:
// owner k's grid indices, ascending, cut into size-item chunks. Owner k's
// worker pops from the head; an idle worker takes from the tail of the
// queue with the most chunks left, so every owner runs an ascending prefix
// of its queue. An owner's first chunk is never taken.
type chunkQueues struct {
	mu         sync.Mutex
	lists      [][]int // lists[k]: owner k's grid indices, ascending
	size       int     // items per chunk
	head, tail []int   // owner k's undispatched chunks are [head[k], tail[k])
}

func newChunkQueues(lists [][]int, size int) *chunkQueues {
	q := &chunkQueues{lists: lists, size: size, head: make([]int, len(lists)), tail: make([]int, len(lists))}
	for k, l := range lists {
		q.tail[k] = (len(l) + size - 1) / size
	}
	return q
}

// next hands worker k its next chunk: the head of its own queue while one
// is left, then, if mayTake, the tail chunk of the owner with the most
// takeable chunks (taken is then true; ties go to the lower owner). A nil
// chunk means worker k is done: queues only shrink, so nothing it passed
// over can become available later.
func (q *chunkQueues) next(k int, mayTake bool) (chunk []int, taken bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head[k] < q.tail[k] {
		q.head[k]++
		return q.chunk(k, q.head[k]-1), false
	}
	if !mayTake {
		return nil, false
	}
	from, most := -1, 0
	for j := range q.lists {
		// Chunk 0 stays with its owner, dispatched or not.
		if left := q.tail[j] - max(q.head[j], 1); left > most {
			from, most = j, left
		}
	}
	if from < 0 {
		return nil, false
	}
	q.tail[from]--
	return q.chunk(from, q.tail[from]), true
}

func (q *chunkQueues) chunk(k, c int) []int {
	l := q.lists[k]
	return l[c*q.size : min((c+1)*q.size, len(l))]
}

// fanError is fanShards' failure: the winning (lowest) global index plus
// the cause, structured so callers that must forward the index over a
// protocol (the router's /sweep proxy) do not have to re-parse their own
// error strings.
type fanError struct {
	At  int
	Err error
}

func (e *fanError) Error() string { return fmt.Sprintf("%d: %v", e.At, e.Err) }
func (e *fanError) Unwrap() error { return e.Err }

// fanShards runs worker(k) concurrently for every replica k < n. A failing
// worker returns the global index its failure maps to; fanShards reports the
// failure with the lowest global index — deterministic no matter which
// workers finish first — as a *fanError rendering "<index>: <cause>".
func fanShards(n int, worker func(k int) (int, error)) error {
	errs := make([]error, n) // per-worker failure
	errAt := make([]int, n)  // global index of that failure
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errAt[k], errs[k] = worker(k)
		}()
	}
	wg.Wait()
	first := -1
	for k, err := range errs {
		if err != nil && (first == -1 || errAt[k] < errAt[first]) {
			first = k
		}
	}
	if first >= 0 {
		return &fanError{At: errAt[first], Err: errs[first]}
	}
	return nil
}

// translateChunkError maps a failing index relative to the dispatched
// sub-chunk back to the chunk's own index space (past items already
// salvaged from earlier partial completions), preserving the QueryError
// classification so retryability survives the rebuild.
func translateChunkError(err error, remainIdx []int) error {
	var ce *serve.ChunkError
	if !errors.As(err, &ce) || ce.Index < 0 || ce.Index >= len(remainIdx) || remainIdx[ce.Index] == ce.Index {
		return err
	}
	translated := &serve.ChunkError{Index: remainIdx[ce.Index], Err: ce.Err}
	var qe *QueryError
	if errors.As(err, &qe) {
		return &QueryError{Status: qe.Status, Err: translated}
	}
	return translated
}

// dispatch sends one chunk from its dispatch origin in repeated ring passes
// (see Router.pass) until every item is answered or the attempt budget is
// spent. What it adds to the pass is sweep-specific:
//   - partial-chunk salvage: the items a failing replica streamed back are
//     kept and only the unanswered rest is re-dispatched, so replicas[j],
//     the replica that answered results[j], may differ across the chunk;
//   - a malformed reply (an index out of range or twice, a clean end
//     short of the chunk, or a stream that breaks the frame grammar, see
//     errMalformedReply) stops the chunk at once with a bare error, and
//     its replica, which answered, stays healthy;
//   - a pass that admitted nobody waits instead of failing while another
//     caller's trial is in flight, or, with a budget beyond the fleet size,
//     until a cooldown elapses;
//   - the error after an exhausted budget is the earliest failure still
//     naming an unanswered item — the most diagnostic one — with the
//     budget noted.
func (c *Coordinator) dispatch(ctx context.Context, origin int, items []serve.SweepItem) ([]serve.SweepResult, []int, error) {
	h := c.router.health
	n := len(c.router.clients)
	budget := c.attempts()
	results := make([]serve.SweepResult, len(items))
	replicas := make([]int, len(items))
	answered := make([]bool, len(items))
	nAnswered := 0
	remainIdx := make([]int, len(items)) // chunk-local indices still unanswered
	for i := range remainIdx {
		remainIdx[i] = i
	}
	var credits []salvageCredit
	var firstErr, malformed error
	firstErrAt := -1  // firstErr's chunk-local item index; -1 = chunk-level
	firstErrSeen := 0 // answered count when firstErr was recorded
	hop := func(replica int) error {
		sub := make([]serve.SweepItem, len(remainIdx))
		for j, li := range remainIdx {
			sub[j] = items[li]
		}
		got := 0
		err := c.router.clients[replica].Sweep(ctx, c.request(sub), func(j int, res serve.SweepResult) error {
			if j < 0 || j >= len(remainIdx) {
				malformed = fmt.Errorf("shard: replica %d answered item %d of a %d-item chunk", replica, j, len(sub))
				return malformed
			}
			li := remainIdx[j]
			if answered[li] {
				malformed = fmt.Errorf("shard: replica %d answered chunk item %d twice", replica, j)
				return malformed
			}
			results[li] = res
			replicas[li] = replica
			answered[li] = true
			nAnswered++
			got++
			return nil
		})
		switch {
		case malformed != nil:
		case errors.Is(err, errMalformedReply):
			malformed = err
		case err == nil && got != len(sub):
			malformed = fmt.Errorf("shard: replica %d answered %d of %d chunk items", replica, got, len(sub))
		}
		if malformed != nil {
			// A *QueryError ends the pass with the replica marked healthy;
			// dispatch returns the bare error.
			return &QueryError{Err: malformed}
		}
		if err == nil {
			// Credit the counters only now that the chunk is whole: a
			// salvage a failed dispatch would have discarded must not
			// inflate PartialSalvages or the per-replica item counters.
			c.router.routedSweepItems[replica].Add(uint64(got))
			for _, cr := range credits {
				c.router.routedSweepItems[cr.replica].Add(uint64(cr.items))
				c.salvaged.Add(uint64(cr.items))
			}
			return nil
		}
		err = translateChunkError(err, remainIdx)
		if got > 0 {
			// The items the replica streamed back before failing are final
			// (deterministic on any replica): keep them, however the
			// failure ended the stream.
			credits = append(credits, salvageCredit{replica: replica, items: got})
			rest := make([]int, 0, len(remainIdx)-got)
			for _, li := range remainIdx {
				if !answered[li] {
					rest = append(rest, li)
				}
			}
			remainIdx = rest
		}
		// Remember the failure an exhausted budget reports: the earliest
		// one still naming an unanswered item. A failure a later salvage
		// answered would misdirect the operator to a cell that is fine.
		// A chunk-level failure (no index) is superseded by any salvage
		// progress at all.
		if firstErr != nil {
			superseded := nAnswered > firstErrSeen
			if firstErrAt >= 0 && firstErrAt < len(answered) {
				superseded = answered[firstErrAt]
			}
			if superseded {
				firstErr, firstErrAt = nil, -1
			}
		}
		if firstErr == nil {
			firstErr, firstErrAt, firstErrSeen = err, -1, nAnswered
			var fce *serve.ChunkError
			if errors.As(err, &fce) {
				firstErrAt = fce.Index
			}
		}
		return err
	}
	attempts := 0
	for attempts < budget {
		replica, tried, err := c.router.pass(ctx, origin, budget-attempts, hop)
		attempts += tried
		switch {
		case malformed != nil:
			return nil, nil, malformed
		case err != nil:
			return nil, nil, err
		case replica >= 0:
			return results, replicas, nil
		case tried > 0:
			continue
		}
		// A pass that admitted nobody. The default budget (at most one try
		// per replica) fails fast, as a dead fleet should — unless another
		// caller's trial is in flight: it may re-admit a replica this chunk
		// can use milliseconds from now, and a genuinely dead fleet has no
		// suspects once its trials resolve. A larger budget is the operator
		// opting into wrap-around retries, which wait out the cooldown (the
		// prober may re-admit a restarted replica sooner). Both waits poll
		// non-counting peeks, so waiting neither claims trial slots it may
		// not use nor inflates the avoided-attempt counter.
		if budget <= n && !h.anySuspect() {
			break
		}
		for (budget > n || h.anySuspect()) && !h.anyDue() {
			if err := sleepCtx(ctx, healthWaitStep(h.Cooldown())); err != nil {
				return nil, nil, err
			}
		}
	}
	if attempts == 0 {
		return nil, nil, fmt.Errorf("shard: chunk found no admissible replica (all %d marked dead within the health cooldown; re-dispatch budget %d unspent)", n, budget)
	}
	return nil, nil, fmt.Errorf("shard: chunk exhausted its re-dispatch budget (%d of %d attempts): %w", attempts, budget, firstErr)
}

// salvageCredit defers counter updates for a salvaged partial chunk until
// its chunk completes: replica executed items results a failed dispatch
// would have thrown away.
type salvageCredit struct {
	replica, items int
}

// sleepCtx waits for d or until ctx is done, whichever comes first,
// returning ctx.Err() in the latter case. Unlike a bare time.Sleep it wakes
// a cancelled sweep immediately, and unlike time.After it never leaks a
// timer into the runtime's heap when cancellation wins the race.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// healthWaitStep bounds how often a dispatch waiting on a fully cooled-down
// ring rechecks it: responsive for test-scale cooldowns without
// busy-polling production ones.
func healthWaitStep(cooldown time.Duration) time.Duration {
	step := cooldown / 10
	if step < time.Millisecond {
		step = time.Millisecond
	}
	if step > 250*time.Millisecond {
		step = 250 * time.Millisecond
	}
	return step
}
