package shard

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gemm"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Client is one replica endpoint a Router fans out to: either a remote
// cmd/serve process (HTTPClient) or an in-process service (LocalClient).
// Sweep streams each answered item into sink as it completes and returns
// only the chunk's fate: nil once every item was delivered, an error
// otherwise. Items already delivered before a failure are salvage — final
// results the caller may keep (deterministic on any replica) while
// re-dispatching the rest; a failed chunk never redelivers them.
//
// Every method takes the caller's request context: over HTTP the context
// rides the request, so cancelling a coordinator sweep tears down its
// in-flight chunk requests and the replicas abandon the unexecuted
// remainder.
type Client interface {
	Query(ctx context.Context, q serve.Query) (serve.Answer, error)
	Sweep(ctx context.Context, req serve.SweepRequest, sink serve.SweepSink) error
	Stats(ctx context.Context) (serve.Stats, error)
	// Healthz is the lightweight liveness probe behind dead-replica
	// re-admission: nil means the replica is up and serving.
	Healthz(ctx context.Context) error
}

// QueryError marks an error the query itself caused (a malformed request, an
// unsupported primitive): deterministic, so the Router does not fail over —
// every replica would reject it the same way.
type QueryError struct {
	Status int // HTTP status when the error came over the wire; 0 locally
	Err    error
}

func (e *QueryError) Error() string { return e.Err.Error() }
func (e *QueryError) Unwrap() error { return e.Err }

// retryable reports whether the error might be replica-specific (down,
// overloaded, mid-deploy) rather than inherent to the query.
func retryable(err error) bool {
	var qe *QueryError
	return !errors.As(err, &qe)
}

// ReplyError marks a failure the replica itself reported over a live
// connection — a structured 5xx reply or a v2 error frame. Retryable
// (another replica may succeed), but proof of liveness: the health plane
// must not bench the sender as if it had timed out.
type ReplyError struct {
	Status int // HTTP status when the error came over the wire; 0 locally
	Err    error
}

func (e *ReplyError) Error() string { return e.Err.Error() }
func (e *ReplyError) Unwrap() error { return e.Err }

// replicaAnswered reports whether err proves the replica is alive and
// answering — a structured reply (4xx rejection, 5xx reply body, an error
// frame, or an item-attributed chunk failure) as opposed to a
// transport-level failure (connection refused, timeout, truncated stream).
// Benching is reserved for the latter: those are the failures whose retry
// costs a timeout, and benching on answered errors would let one
// deterministic-5xx poison query/item walk the ring and mark the whole
// fleet dead.
func replicaAnswered(err error) bool {
	var re *ReplyError
	var qe *QueryError
	var ce *serve.ChunkError
	return errors.As(err, &re) || errors.As(err, &qe) || errors.As(err, &ce)
}

// DefaultTimeout bounds requests of the package-default HTTP client: long
// enough for a cold-shape tune or a full sweep chunk of simulations, short
// enough that a black-holed replica (SYN dropped, process wedged mid-write)
// costs one bounded hop of the failover ring instead of stalling the caller
// forever. Callers with tighter SLOs pass their own client (cmd/route's
// -timeout flag does).
const DefaultTimeout = 60 * time.Second

// DefaultInflight is the number of concurrent requests a router's or a
// coordinator's client keeps idle connections for (NewHTTPClient).
const DefaultInflight = 64

// defaultClient replaces http.DefaultClient as the fallback transport.
// http.DefaultClient has no timeout, so a single unresponsive replica used
// to hang Router.Query's failover loop — and every query behind it —
// unboundedly.
var defaultClient = NewHTTPClient(DefaultTimeout, DefaultInflight)

// NewHTTPClient returns the client a router, a coordinator or a load
// replay talks to its peers with: each request times out after timeout,
// and the idle pool keeps the connections of up to inflight concurrent
// requests, to one host and in total. http.DefaultTransport keeps two per
// host, so there every reply past the second in flight closed its
// connection and a later request dialled a new one.
func NewHTTPClient(timeout time.Duration, inflight int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns, t.MaxIdleConnsPerHost = inflight, inflight
	return &http.Client{Timeout: timeout, Transport: t}
}

// HTTPClient speaks the cmd/serve HTTP/JSON protocol against a base URL like
// "http://10.0.0.7:8080". A nil HTTP field uses the package's bounded
// default client (DefaultTimeout per request). Per-request deadlines derive
// from the caller's context as well as the client-wide timeout: every
// request carries its ctx, and net/http applies whichever bound — the ctx
// deadline or the client's Timeout — expires sooner.
type HTTPClient struct {
	Base string
	HTTP *http.Client
}

func (c *HTTPClient) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient
}

// ParseReplicas parses a comma-separated replica URL list (the -replicas
// flag of cmd/route and cmd/sweep), trimming whitespace and trailing
// slashes and defaulting the scheme to http. Empty entries and duplicates
// are rejected: replica position is shard identity (entry i serves
// -shard i/n), so a URL listed twice would occupy two slots of the
// ownership plane while halving the fleet's real coverage — and the
// partitioner would silently skew instead of failing loudly at startup.
func ParseReplicas(raw string) ([]string, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("shard: empty replica list")
	}
	seen := make(map[string]bool)
	var urls []string
	for _, tok := range strings.Split(raw, ",") {
		u := strings.TrimRight(strings.TrimSpace(tok), "/")
		if u == "" {
			return nil, fmt.Errorf("shard: empty replica URL in %q", raw)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("shard: duplicate replica URL %s (replica position is shard identity; list each replica once, in shard order)", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	return urls, nil
}

// wireError rebuilds a structured failure into the error taxonomy the
// router and coordinators act on. A non-200 reply (resp) is classified by
// its status line — a 4xx is the request's fault, and another replica
// would reject it too — and its body is read as the error envelope; any
// other body leaves the message to the status line. A v2 error frame (resp
// nil, eb its body) is classified by its retryable bit, because its stream
// committed a 200 before executing. An item index is rebuilt as a
// *serve.ChunkError, so coordinators attribute remote failures exactly like
// local ones; any other retryable failure is a *ReplyError: the replica
// answered rather than died.
func (c *HTTPClient) wireError(path string, resp *http.Response, eb *serve.ErrorBody) error {
	status := 0
	if resp != nil {
		var env serve.ErrorEnvelope
		if json.NewDecoder(resp.Body).Decode(&env) != nil {
			env = serve.ErrorEnvelope{}
		}
		if env.Error.Message == "" {
			env.Error.Message = resp.Status
		}
		status, eb = resp.StatusCode, &env.Error
	} else if eb == nil {
		eb = &serve.ErrorBody{Message: "error frame without a body"}
	}
	cause := error(fmt.Errorf("shard: %s%s: %s", c.Base, path, eb.Message))
	indexed := eb.Index != nil && *eb.Index >= 0
	if indexed {
		cause = &serve.ChunkError{Index: *eb.Index, Err: cause}
	}
	switch {
	case status >= 400 && status < 500, status == 0 && !eb.Retryable:
		return &QueryError{Status: status, Err: cause}
	case indexed:
		return cause
	}
	return &ReplyError{Status: status, Err: cause}
}

func (c *HTTPClient) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.Base, err)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.wireError(path, resp, nil)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard: %s%s: decoding reply: %w", c.Base, path, err)
	}
	return nil
}

// Query forwards one query over /query.
func (c *HTTPClient) Query(ctx context.Context, q serve.Query) (serve.Answer, error) {
	v := url.Values{}
	v.Set("m", fmt.Sprint(q.Shape.M))
	v.Set("n", fmt.Sprint(q.Shape.N))
	v.Set("k", fmt.Sprint(q.Shape.K))
	v.Set("prim", q.Prim.Short())
	if q.Imbalance != 0 {
		v.Set("imbalance", fmt.Sprint(q.Imbalance))
	}
	if q.Tenant != "" {
		v.Set("tenant", q.Tenant)
	}
	var qr serve.QueryResponse
	if err := c.get(ctx, "/query?"+v.Encode(), &qr); err != nil {
		return serve.Answer{}, err
	}
	return serve.Answer{
		Partition: gemm.Partition(qr.Partition),
		Waves:     qr.Waves,
		Predicted: sim.Time(qr.PredictedNs),
		Source:    qr.Source,
	}, nil
}

// Sweep posts one sweep chunk to the replica's /sweep endpoint, negotiating
// the v2 NDJSON stream (Accept: application/x-ndjson) and feeding each
// result frame into sink as it arrives — the items whose frames left the
// replica reach the coordinator even when the replica dies mid-chunk.
// Every replica and router in this repository answers that negotiation
// with v2, so a 200 reply is always read as a frame stream; a buffered v1
// body fails as a malformed reply. A non-200 reply (the request was
// rejected before executing) and an error frame both decode through
// wireError.
func (c *HTTPClient) Sweep(ctx context.Context, req serve.SweepRequest, sink serve.SweepSink) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("shard: encoding sweep chunk: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/sweep", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.Base, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", serve.ContentTypeNDJSON)
	resp, err := c.client().Do(hreq)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.wireError("/sweep", resp, nil)
	}
	return c.sweepFrames(resp.Body, sink)
}

// errMalformedReply marks a v2 reply that breaks the frame grammar: a
// line that does not decode, a result frame without a result, or a frame
// of an unknown kind. The replica answered, so it stays healthy, and the
// chunk stops (see Coordinator.dispatch).
var errMalformedReply = errors.New("malformed reply")

// sweepFrames consumes a v2 NDJSON sweep stream one line at a time, each
// line decoded by serve.DecodeSweepFrame: result frames feed the sink as
// they arrive, a done frame completes the chunk, and an error frame ends
// it through wireError. A result frame must carry its execution's result,
// so no sink ever sees a nil *core.Result. A newline-terminated line that
// is not a canonical frame line is a malformed reply. Bytes after the last
// newline when the body ends are a truncated stream, a transport failure.
// The reader stops at the terminal frame without waiting for more, and
// sees the body's end when it arrives in the same read, so the connection
// can serve the next chunk.
func (c *HTTPClient) sweepFrames(body io.Reader, sink serve.SweepSink) error {
	br := bufio.NewReader(body)
	var long []byte // a line longer than br's buffer, gathered
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		var fr serve.SweepFrame
		if derr := serve.DecodeSweepFrame(line, &fr); derr != nil {
			if err != nil {
				// The replica died mid-stream. Items already delivered
				// stand as salvage.
				return fmt.Errorf("shard: %s/sweep: stream ended before its terminal frame: %w", c.Base, err)
			}
			return fmt.Errorf("shard: %s/sweep: %w: line %d: %v", c.Base, errMalformedReply, n, derr)
		}
		switch fr.Frame {
		case serve.FrameResult:
			if fr.Result == nil || fr.Result.Result == nil {
				return fmt.Errorf("shard: %s/sweep: %w: result frame without a result", c.Base, errMalformedReply)
			}
			if err := sink(fr.Index, *fr.Result); err != nil {
				return err
			}
		case serve.FrameDone:
			return nil
		case serve.FrameError:
			return c.wireError("/sweep", nil, fr.Error)
		default:
			return fmt.Errorf("shard: %s/sweep: %w: unknown frame %q", c.Base, errMalformedReply, fr.Frame)
		}
	}
}

// Stats fetches the replica's /stats snapshot.
func (c *HTTPClient) Stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	if err := c.get(ctx, "/stats", &st); err != nil {
		return serve.Stats{}, err
	}
	return st, nil
}

// HealthzTimeout bounds a liveness probe independently of the heavyweight
// per-request client timeout (which must cover whole tuned sweep chunks).
// A replica that cannot answer /healthz in this window is not re-admittable
// anyway, and a black-holed corpse must not stall a probe round for the
// 30s-2m work timeout — that would starve other replicas' re-admission.
const HealthzTimeout = 2 * time.Second

// Healthz probes the replica's GET /healthz liveness endpoint. Any
// transport error, timeout (the sooner of HealthzTimeout and the caller's
// ctx deadline), or non-200 status means the replica is not (yet) ready to
// be re-admitted.
func (c *HTTPClient) Healthz(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, HealthzTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.Base, err)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: %s/healthz: %s", c.Base, resp.Status)
	}
	return nil
}

// LocalClient adapts an in-process *serve.Service to the Client interface
// (sharded sweeps inside one process, tests). Errors classify exactly like
// the HTTP path: deterministic query rejections (serve.IsBadQuery) become
// non-retryable QueryErrors, internal service failures pass through
// retryable — mirroring the 4xx/5xx split serve.Handler applies on the
// wire.
type LocalClient struct {
	Svc *serve.Service
}

func (c *LocalClient) Query(ctx context.Context, q serve.Query) (serve.Answer, error) {
	ans, err := c.Svc.Query(ctx, q)
	if err != nil {
		if serve.IsBadQuery(err) {
			return serve.Answer{}, &QueryError{Err: err}
		}
		// A cancelled caller surfaces its own ctx error unwrapped, like an
		// HTTP client whose request context ends mid-call.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return serve.Answer{}, err
		}
		// An in-process service cannot have transport failures: every
		// error is the replica answering, mirroring the HTTP 5xx path.
		return serve.Answer{}, &ReplyError{Err: err}
	}
	return ans, nil
}

// Sweep processes one sweep chunk on the in-process service, streaming each
// item into sink as it completes — items delivered before a failure are
// salvage, like the HTTP path's result frames.
func (c *LocalClient) Sweep(ctx context.Context, req serve.SweepRequest, sink serve.SweepSink) error {
	err := c.Svc.SweepChunk(ctx, req, sink)
	if err != nil && serve.IsBadQuery(err) {
		return &QueryError{Err: err}
	}
	return err
}

func (c *LocalClient) Stats(context.Context) (serve.Stats, error) { return c.Svc.Stats(), nil }

// Healthz reports an in-process service as always alive.
func (c *LocalClient) Healthz(context.Context) error { return nil }

// Answer is a routed reply: the replica's answer plus where it came from.
type Answer struct {
	serve.Answer
	// Owner is the shard the partitioner assigned; Replica is the shard
	// that actually answered (different only after failover).
	Owner, Replica int
}

// Router fans queries out to a fleet of replicas by shape ownership, failing
// over to the next shard in ring order when the owner is unreachable. All
// methods are safe for concurrent use.
type Router struct {
	part    Partitioner
	clients []Client
	health  *Health

	// The router's own counters, behind RouterStats; the replica-side
	// counters live in each replica's serve.Service.
	routedQueries    []atomic.Uint64 // per-replica answered /query requests
	routedSweepItems []atomic.Uint64 // per-replica answered sweep items
	failovers        atomic.Uint64

	proberMu   sync.Mutex // guards the shared prober's refcount lifecycle
	proberRefs int
	proberStop chan struct{}
}

// NewRouter builds a router over the replica fleet; ownership follows
// NewPartitioner(len(clients)). The router owns the fleet's health plane,
// shared with every Coordinator built over it.
func NewRouter(clients []Client) (*Router, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one replica")
	}
	return &Router{
		part:             NewPartitioner(len(clients)),
		clients:          clients,
		health:           NewHealth(len(clients)),
		routedQueries:    make([]atomic.Uint64, len(clients)),
		routedSweepItems: make([]atomic.Uint64, len(clients)),
	}, nil
}

// Partitioner exposes the ownership mapping the router fans out with.
func (r *Router) Partitioner() Partitioner { return r.part }

// Health exposes the fleet's shared health plane (cooldown tuning, state
// inspection). Coordinators built over this router share it, so a replica
// one sweep discovered dead is skipped by routed queries too.
func (r *Router) Health() *Health { return r.health }

// Owner returns the replica that currently owns the shape: the static ring
// owner unless the health plane has evicted it (dead past the eviction
// window), in which case ownership falls clockwise to the nearest surviving
// ring member. The consistent-hash ring makes the remap O(1/n): cells whose
// owner is alive never move, and re-admission hands the evicted cells back
// exactly.
func (r *Router) Owner(s gemm.Shape) int {
	return r.part.OwnerAmong(s, func(m int) bool { return !r.health.Evicted(m) })
}

// pass is the fleet's one failover policy, shared by Query and every sweep
// chunk's dispatch. It visits the ring once, clockwise from origin, and
// calls hop on each admissible replica until one succeeds or budget hops
// have been made:
//   - replicas the health plane benches are skipped without paying a
//     timeout (at most one trial per cooldown window reaches a dead one);
//   - ctx is checked before every hop and again after a failure, before
//     any health bookkeeping: a failure under a cancelled ctx is the caller
//     giving up, never evidence against the replica;
//   - only a transport failure benches its replica. An answered error (a
//     4xx, a structured 5xx, an item-attributed chunk failure) proves it
//     alive, and benching on it would let one poison request walk the ring
//     marking the whole fleet dead;
//   - a non-retryable error (*QueryError) ends the pass, since every
//     replica would reject the request the same way.
//
// It returns the replica that succeeded; or -1 and the error that ended the
// pass early (ctx's, or a non-retryable one); or -1 and nil once every
// admitted replica failed. attempted counts the hops made. hop sees each
// failure first, so callers keep whatever record of them they report.
func (r *Router) pass(ctx context.Context, origin, budget int, hop func(replica int) error) (answered, attempted int, err error) {
	n := len(r.clients)
	for i := 0; i < n && attempted < budget; i++ {
		if err := ctx.Err(); err != nil {
			return -1, attempted, err
		}
		replica := (origin + i) % n
		if !r.health.Allow(replica) {
			continue
		}
		attempted++
		err := hop(replica)
		if err == nil {
			r.health.MarkHealthy(replica)
			return replica, attempted, nil
		}
		if ctx.Err() != nil {
			return -1, attempted, err
		}
		if replicaAnswered(err) {
			r.health.MarkHealthy(replica)
		} else {
			r.health.MarkFailed(replica)
		}
		if !retryable(err) {
			return -1, attempted, err
		}
	}
	return -1, attempted, nil
}

// Query forwards q to the replica owning its shape in one ring pass (see
// pass): each replica is tried at most once, and a fleet benched inside
// its cooldown fails fast — a query never waits. Replicas dead past the
// eviction window own no cells, so their shapes route straight to the ring
// survivors until re-admission hands them back. After every admitted
// replica failed, the error is the first failure.
func (r *Router) Query(ctx context.Context, q serve.Query) (Answer, error) {
	owner := r.Owner(q.Shape)
	var ans serve.Answer
	var firstErr error
	replica, attempted, err := r.pass(ctx, owner, len(r.clients), func(replica int) (err error) {
		ans, err = r.clients[replica].Query(ctx, q)
		if firstErr == nil {
			firstErr = err
		}
		return err
	})
	switch {
	case err != nil:
		return Answer{}, err
	case attempted == 0:
		return Answer{}, fmt.Errorf("shard: all %d replicas are marked dead within their health cooldown (%v)",
			len(r.clients), r.health.Cooldown())
	case replica < 0:
		return Answer{}, fmt.Errorf("shard: all %d replicas failed: %w", len(r.clients), firstErr)
	}
	r.routedQueries[replica].Add(1)
	if replica != owner {
		r.failovers.Add(1)
	}
	return Answer{Answer: ans, Owner: owner, Replica: replica}, nil
}

// Probe checks trial-due dead replicas' /healthz once, concurrently, and
// re-admits the replicas that answer. The probe competes for the same
// single trial slot per cooldown window as in-band dispatch (an atomic
// claimTrial), so a zombie whose /healthz answers while its work path
// keeps failing re-enters rotation at most once per window and never
// right after failing a claimed in-band trial.
// A probe that fails resolves its claimed trial dead — that restamps the
// cooldown only once per window, so in-band trials and later probes keep
// getting their turn. It returns the number of replicas re-admitted. k
// dead replicas cost one bounded HealthzTimeout, not k stacked ones.
// Probes target only already-dead replicas, so a probe aborted by ctx can
// at worst restamp a dead replica's cooldown — never bench a healthy one.
func (r *Router) Probe(ctx context.Context) int {
	var wg sync.WaitGroup
	var readmitted atomic.Int64
	for i, c := range r.clients {
		if !r.health.claimTrial(i) {
			// Healthy, inside its cooldown, or the window's slot went
			// to an in-band dispatch: nothing to probe.
			continue
		}
		wg.Add(1)
		go func(i int, c Client) {
			defer wg.Done()
			if err := c.Healthz(ctx); err == nil {
				r.health.MarkHealthy(i)
				readmitted.Add(1)
			} else {
				r.health.MarkFailed(i)
			}
		}(i, c)
	}
	wg.Wait()
	return int(readmitted.Load())
}

// StartProber acquires the router's shared background prober and returns a
// stop function releasing it. The prober — a single goroutine no matter how
// many holders — probes dead replicas' /healthz every interval (<= 0
// selects the health cooldown; the interval of the holder that starts the
// goroutine wins) and runs until the last holder stops, so one sweep
// finishing cannot strip a concurrent sweep of its mid-sweep re-admission.
// cmd/route holds it for the process lifetime; Coordinator.Stream holds it
// per sweep, so a replica restarted mid-sweep is re-admitted and reclaims
// its owned shard before the sweep ends.
//
// ctx scopes the acquisition, not the goroutine: the prober outlives any
// one holder's request (it runs detached, under context.WithoutCancel of
// the first holder's ctx), but releasing the last hold — which every
// holder's defer does, cancelled or not — stops the goroutine and its
// in-flight probes. No timer or goroutine leaks when a sweep is cancelled
// mid-retry: the ticker dies with the goroutine.
func (r *Router) StartProber(ctx context.Context, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = r.health.Cooldown()
	}
	r.proberMu.Lock()
	r.proberRefs++
	if r.proberRefs == 1 {
		done := make(chan struct{})
		r.proberStop = done
		// The shared goroutine must not die with whichever holder happened
		// to start it — later holders rely on it — so its probe context
		// detaches from the first holder's cancellation and ends only when
		// the last hold is released.
		pctx, pcancel := context.WithCancel(context.WithoutCancel(ctx))
		go func() {
			defer pcancel()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					r.Probe(pctx)
				}
			}
		}()
	}
	r.proberMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.proberMu.Lock()
			defer r.proberMu.Unlock()
			r.proberRefs--
			if r.proberRefs == 0 {
				close(r.proberStop)
				r.proberStop = nil
			}
		})
	}
}

// ReplicaStats is one replica's slice of a router stats snapshot.
type ReplicaStats struct {
	Replica int `json:"replica"`
	// Health is the replica's health-plane state: healthy, suspect, dead.
	Health string `json:"health"`
	// Evicted reports whether the replica is currently rebalanced out of
	// the ownership ring (dead past the eviction window).
	Evicted bool `json:"evicted,omitempty"`
	// RoutedQueries counts /query requests this replica answered through
	// the router; RoutedSweepItems counts sweep items it executed for a
	// coordinator. They are separate units — the old single "routed"
	// counter conflated one query with one sweep item.
	RoutedQueries    uint64 `json:"routed_queries"`
	RoutedSweepItems uint64 `json:"routed_sweep_items"`
	// Error is set when the replica's /stats was unreachable; Stats is
	// then zero and excluded from the merge.
	Error string      `json:"error,omitempty"`
	Stats serve.Stats `json:"stats"`
}

// Stats is the router's merged fleet view plus the per-replica breakdown.
type RouterStats struct {
	Replicas int `json:"replicas"`
	// Failovers counts ring departures: one per query answered off-owner
	// plus one per sweep chunk any of whose items left the replica the
	// chunk was sent to (chunk-granular, matching
	// Coordinator.Redispatches; a chunk an idle replica took is not a
	// departure) — a rate signal for "how often is a dead replica being
	// dodged", not an item count; RoutedSweepItems carries the per-item
	// accounting.
	Failovers uint64 `json:"failovers"`
	// Readmissions counts dead replicas brought back: successful trial
	// dispatches after a cooldown plus /healthz probe re-admissions.
	Readmissions uint64 `json:"readmissions"`
	// Evictions counts replicas that stayed dead past the eviction window
	// and surrendered their ring cells to the survivors; Handbacks counts
	// evicted replicas re-admitted and handed their cells back. Equal
	// counters mean the ring is currently whole.
	Evictions uint64         `json:"evictions"`
	Handbacks uint64         `json:"handbacks"`
	Merged    serve.Stats    `json:"merged"`
	PerShard  []ReplicaStats `json:"per_shard"`
}

// Stats polls every replica concurrently and merges the reachable
// snapshots. A down replica appears in PerShard with its error instead of
// failing the whole snapshot — a router must report on a degraded fleet, not
// mirror it — and the parallel poll means k unreachable replicas cost one
// client timeout, not k stacked ones. ctx bounds the poll.
func (r *Router) Stats(ctx context.Context) RouterStats {
	st := RouterStats{
		Replicas:     len(r.clients),
		Failovers:    r.failovers.Load(),
		Readmissions: r.health.Readmissions(),
		PerShard:     make([]ReplicaStats, len(r.clients)),
	}
	states := r.health.States()
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c Client) {
			defer wg.Done()
			rs := ReplicaStats{
				Replica: i,
				Health:  states[i].String(),
				// Evicted consults the lazily-latching predicate, so a
				// stats poll observes an eviction even if no query or
				// sweep has looked at the ring since the window elapsed.
				Evicted:          r.health.Evicted(i),
				RoutedQueries:    r.routedQueries[i].Load(),
				RoutedSweepItems: r.routedSweepItems[i].Load(),
			}
			s, err := c.Stats(ctx)
			if err != nil {
				rs.Error = err.Error()
			} else {
				rs.Stats = s
			}
			st.PerShard[i] = rs
		}(i, c)
	}
	wg.Wait()
	// Read the counters after the per-replica Evicted calls above: a due
	// eviction latches (and counts) during the poll, so the totals and the
	// per-shard flags in one snapshot agree.
	st.Evictions = r.health.Evictions()
	st.Handbacks = r.health.Handbacks()
	for _, rs := range st.PerShard {
		if rs.Error == "" {
			st.Merged = st.Merged.Merge(rs.Stats)
		}
	}
	return st
}

// RoutedResponse is the JSON shape of the router's /query reply: the
// replica's response plus routing attribution.
type RoutedResponse struct {
	serve.QueryResponse
	Owner   int `json:"owner"`
	Replica int `json:"replica"`
}

// RoutedSweepResponse is the router's buffered (v1) /sweep reply: per-item
// results with routing attribution, plus the number of chunks this sweep
// re-dispatched through the failover ring. Chunks idle replicas took are
// not re-dispatches: on a healthy fleet Redispatches stays 0 even where a
// result's Replica differs from its Owner.
type RoutedSweepResponse struct {
	Results      []SweepResult `json:"results"`
	Redispatches uint64        `json:"redispatches"`
}

// routedFrame is one line of the router's v2 /sweep stream: a replica's
// frame grammar with owner/replica fields in every result. Clients decoding
// into serve.SweepFrame simply ignore the attribution, so a coordinator
// driving this router as a one-replica fleet consumes the stream unchanged.
type routedFrame = serve.Frame[SweepResult]

// Handler mounts the router on an HTTP mux with the same surface as a
// replica — /query, /sweep, /stats, and /healthz — so clients cannot tell a router
// from a single serve process (except for the extra attribution fields).
// /sweep is proxied through a Coordinator over the fleet, which means a
// cmd/sweep pointed at a router as a one-replica "fleet" transparently fans
// out across the real one — and a v2 client streaming from the router gets
// result frames as the fleet's chunks complete, proxied without buffering
// the grid.
//
// Every request executes under a context derived from the client's
// (req.Context()), so a client hanging up on the router tears down the
// router's in-flight requests to the fleet in turn. Handler applies no
// additional deadline; HandlerWithTimeout adds one.
func (r *Router) Handler() http.Handler { return r.HandlerWithTimeout(0) }

// HandlerWithTimeout is Handler with a per-request execution deadline
// (cmd/route's -request-timeout): each request's context is the client's
// plus, when timeout > 0, a deadline of that duration. The deadline rides
// the proxied fleet requests, so a timed-out sweep cancels every in-flight
// shard chunk.
func (r *Router) HandlerWithTimeout(timeout time.Duration) http.Handler {
	reqCtx := func(req *http.Request) (context.Context, context.CancelFunc) {
		if timeout <= 0 {
			return req.Context(), func() {}
		}
		return context.WithTimeout(req.Context(), timeout)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
		q, err := serve.ParseQuery(req)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := reqCtx(req)
		defer cancel()
		ans, err := r.Query(ctx, q)
		if err != nil {
			status, body := errorReply(err)
			serve.WriteErrorBody(w, status, body)
			return
		}
		writeJSON(w, RoutedResponse{
			QueryResponse: serve.QueryResponse{
				Shape:       q.Shape.String(),
				Primitive:   q.Prim.String(),
				Partition:   ans.Partition,
				Waves:       ans.Waves,
				PredictedNs: int64(ans.Predicted),
				Source:      ans.Source,
			},
			Owner:   ans.Owner,
			Replica: ans.Replica,
		})
	})
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, req *http.Request) {
		sr, ok := serve.ReadSweepRequest(w, req)
		if !ok {
			return
		}
		// Honor the caller's forwarded spec: a sweep driver pointed at
		// this router as a one-replica fleet chose its own chunk size and
		// attempt budget, and silently resetting them to defaults here
		// would change what they bound: round trips per item, how finely
		// idle replicas take work (see DefaultChunkSize), and how many
		// replicas one chunk may try. The attempt budget is
		// remote-supplied, so it is clamped to twice the fleet size:
		// budgets beyond the fleet wait out health cooldowns between ring
		// wraps, and an absurd value would wedge this handler goroutine
		// for the cooldown-wait loop's duration. The health windows
		// (HealthCooldown, ProbeInterval) are fleet-owned and never ride
		// the wire — json:"-" on the spec — so a remote caller cannot
		// re-tune this router's failure detector.
		co := NewCoordinator(r)
		co.Spec = sr.SweepSpec
		co.Spec.Attempts = min(sr.Attempts, 2*len(r.clients))
		ctx, cancel := reqCtx(req)
		defer cancel()
		if serve.StreamRequested(req, sr) {
			// Stream's merged emissions become result frames as each
			// chunk completes, so the router holds O(chunk) per replica,
			// never the grid.
			st := serve.NewSweepStream[SweepResult](w)
			st.End(co.Stream(ctx, sr.Items, st.Result), errorReply)
			return
		}
		results, err := co.Sweep(ctx, sr.Items)
		if err != nil {
			// No results ride along: the fleet's completions are not a
			// prefix of the grid. v2 streaming is what exposes them.
			status, body := errorReply(err)
			serve.WriteErrorBody(w, status, body)
			return
		}
		writeJSON(w, RoutedSweepResponse{Results: results, Redispatches: co.Redispatches()})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Stats(req.Context()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		// The router's own liveness: an outer coordinator driving this
		// router as a one-replica fleet probes it for re-admission like
		// any replica.
		writeJSON(w, map[string]string{"status": "ok"})
	})
	return mux
}

// errorReply maps a fleet failure to the router's HTTP status and envelope
// body. A *QueryError keeps its replica's 4xx (422 when it arose locally)
// and is not retryable; anything else is a retryable 502. A sweep failure
// carries its item's index into the posted grid, so an outer coordinator
// driving this router as a one-replica fleet attributes it to its own
// global item instead of blaming the chunk's first.
func errorReply(err error) (int, serve.ErrorBody) {
	status := http.StatusBadGateway
	var qe *QueryError
	if errors.As(err, &qe) {
		status = cmp.Or(qe.Status, http.StatusUnprocessableEntity)
	}
	body := serve.ErrorBody{Message: err.Error(), Retryable: status >= 500}
	var fe *fanError
	if errors.As(err, &fe) {
		idx := fe.At
		body.Index = &idx
	}
	return status, body
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
