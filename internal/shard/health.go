package shard

import (
	"sync"
	"time"
)

// HealthState classifies one replica in the fleet's shared health plane.
type HealthState int

const (
	// Healthy replicas take dispatches and routed queries freely.
	Healthy HealthState = iota
	// Suspect marks a cooled-down dead replica with exactly one trial
	// request in flight — the half-open circuit-breaker state. Everyone
	// else keeps skipping it until the trial reports an outcome (or its
	// own cooldown elapses, guarding against a trial that never returns).
	Suspect
	// Dead replicas failed recently and are skipped by dispatch and
	// routing until their cooldown elapses: the fleet pays at most one
	// probe timeout per replica per cooldown window instead of one per
	// chunk or query.
	Dead
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// DefaultHealthCooldown is how long a failed replica is skipped before one
// trial request is allowed through again. Long enough that a sweep over a
// degraded fleet pays ~one probe timeout total rather than one per chunk,
// short enough that a replica recovering without a /healthz prober is not
// benched for long.
const DefaultHealthCooldown = 15 * time.Second

// DefaultEvictAfter is how many whole cooldown windows a replica must stay
// continuously dead before it is evicted from the ownership ring — its
// cells rebalance to the ring survivors until it comes back. More than one
// window so a crash-and-restart (the common churn) never moves ownership;
// few enough that a genuinely gone replica stops costing a failover hop on
// every one of its cells within a minute at the default cooldown.
const DefaultEvictAfter = 3

// Health is the per-replica health plane a Router and its Coordinators
// share: dispatch outcomes drive the healthy/suspect/dead state machine,
// and both query routing and sweep dispatch consult it to skip replicas
// known to be dead instead of burning a client timeout per chunk or query.
// All methods are safe for concurrent use.
type Health struct {
	mu         sync.Mutex
	cooldown   time.Duration
	evictAfter int              // cooldown windows continuously dead before eviction; <= 0 disables
	now        func() time.Time // injectable clock (tests)
	replicas   []replicaHealth

	readmissions uint64 // dead/suspect -> healthy transitions
	skips        uint64 // attempts avoided on replicas inside their cooldown
	evictions    uint64 // replicas that surrendered ring ownership
	handbacks    uint64 // evicted replicas re-admitted and handed their cells back
}

type replicaHealth struct {
	state HealthState
	since time.Time // when the replica entered its current state
	// deadSince is when the replica's current unbroken spell of failure
	// began. Unlike since it survives suspect trials (a failed trial does
	// not reset the eviction clock — only an actual recovery does), so it
	// measures "dead past N cooldowns" for the eviction predicate. Zero
	// while the replica is healthy.
	deadSince time.Time
	// evicted latches once deadSince ages past evictAfter cooldowns; only
	// MarkHealthy clears it. While set, the replica owns no cells — the
	// ring rebalances its slice of the plane onto the survivors.
	evicted bool
}

// NewHealth builds a health plane over n replicas, all initially healthy,
// with the default cooldown and eviction window. Router construction calls
// this; tests and CLIs adjust through SetCooldown and SetEvictAfter.
func NewHealth(n int) *Health {
	return &Health{
		cooldown:   DefaultHealthCooldown,
		evictAfter: DefaultEvictAfter,
		now:        time.Now,
		replicas:   make([]replicaHealth, n),
	}
}

// SetCooldown replaces the cooldown window; non-positive durations are
// ignored (the zero value must never mean "hammer dead replicas").
func (h *Health) SetCooldown(d time.Duration) {
	if d <= 0 {
		return
	}
	h.mu.Lock()
	h.cooldown = d
	h.mu.Unlock()
}

// Cooldown returns the current cooldown window.
func (h *Health) Cooldown() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cooldown
}

// SetEvictAfter sets how many whole cooldown windows a replica must stay
// continuously dead before it is evicted from the ownership ring. 0 (or
// negative) disables eviction: dead replicas then ride the failover ring
// forever, the pre-rebalance behavior.
func (h *Health) SetEvictAfter(windows int) {
	h.mu.Lock()
	h.evictAfter = windows
	h.mu.Unlock()
}

// Evicted reports whether replica i has been dead long enough (evictAfter
// whole cooldown windows, uninterrupted by any recovery) to surrender its
// ring ownership. The flag latches on the first observation past the
// window — counting one eviction — and only MarkHealthy clears it, counting
// a hand-back; suspect trials that fail neither reset the clock nor the
// flag, so a zombie cannot flap ownership once per probe.
func (h *Health) Evicted(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &h.replicas[i]
	if !r.evicted && h.evictAfter > 0 && !r.deadSince.IsZero() &&
		h.now().Sub(r.deadSince) >= time.Duration(h.evictAfter)*h.cooldown {
		r.evicted = true
		h.evictions++
	}
	return r.evicted
}

// Allow reports whether an attempt on replica i is admissible right now.
// Healthy replicas always are. A dead (or stuck-suspect) replica becomes
// admissible once per cooldown window: the first caller after the window
// elapses claims the single trial slot (the replica turns Suspect) and
// everyone else keeps skipping, so a degraded fleet pays at most one probe
// timeout per replica per window. Callers must report the trial's outcome
// through MarkHealthy or MarkFailed.
func (h *Health) Allow(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &h.replicas[i]
	if r.state == Healthy {
		return true
	}
	if h.now().Sub(r.since) >= h.cooldown {
		r.state = Suspect
		r.since = h.now()
		return true
	}
	h.skips++
	return false
}

// MarkHealthy records a successful attempt (or /healthz probe) on replica
// i, re-admitting it if it was suspect or dead.
func (h *Health) MarkHealthy(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &h.replicas[i]
	if r.state != Healthy {
		r.state = Healthy
		r.since = h.now()
		h.readmissions++
	}
	if r.evicted {
		// Re-admission hands the replica its owned cells back: the ring
		// never moved, so the same cells that rebalanced away return.
		r.evicted = false
		h.handbacks++
	}
	r.deadSince = time.Time{}
}

// claimTrial atomically claims replica i's per-window trial slot for the
// /healthz prober: true only when i is non-healthy and past its cooldown.
// Gating probe re-admission on the same window as in-band trials means a
// zombie replica (process up, /healthz 200, but every chunk failing)
// cannot oscillate dead -> healthy faster than once per cooldown — which
// would burn an attempt per probe interval instead of per window. Unlike
// Allow it never admits healthy replicas and counts no skips.
func (h *Health) claimTrial(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &h.replicas[i]
	if r.state == Healthy || h.now().Sub(r.since) < h.cooldown {
		return false
	}
	r.state = Suspect
	r.since = h.now()
	return true
}

// anyDue reports whether any replica is currently admissible — healthy, or
// past its cooldown. The dispatch cooldown-wait loop polls this instead of
// Allow so waiting neither claims trial slots it may not use nor inflates
// the skip counter.
func (h *Health) anyDue() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.replicas {
		r := &h.replicas[i]
		if r.state == Healthy || h.now().Sub(r.since) >= h.cooldown {
			return true
		}
	}
	return false
}

// anySuspect reports whether some replica has a trial in flight — another
// dispatcher's probe that may re-admit it momentarily. Dispatch checks it
// before declaring a fully cooled-down ring hopeless.
func (h *Health) anySuspect() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.replicas {
		if h.replicas[i].state == Suspect {
			return true
		}
	}
	return false
}

// MarkFailed records a transport-level failure (connection refused,
// timeout, truncated reply) on replica i: the replica is dead and its
// cooldown window restarts. Answered errors — 4xx rejections and
// structured 5xx replies — must not be reported here: they prove the
// replica is alive (callers mark those healthy and merely fail over).
func (h *Health) MarkFailed(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := &h.replicas[i]
	r.state = Dead
	r.since = h.now()
	if r.deadSince.IsZero() {
		// First failure of this spell starts the eviction clock; a failed
		// suspect trial later in the spell must not restart it.
		r.deadSince = h.now()
	}
}

// State returns replica i's current health state.
func (h *Health) State(i int) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.replicas[i].state
}

// States snapshots every replica's state, indexed by replica.
func (h *Health) States() []HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HealthState, len(h.replicas))
	for i, r := range h.replicas {
		out[i] = r.state
	}
	return out
}

// Readmissions counts dead/suspect -> healthy transitions: successful
// trial dispatches plus /healthz probe re-admissions.
func (h *Health) Readmissions() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.readmissions
}

// Skips counts attempts the health plane avoided because the replica was
// inside its cooldown — each one is a client timeout the degraded fleet
// did not pay.
func (h *Health) Skips() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.skips
}

// Evictions counts replicas that stayed dead past the eviction window and
// surrendered their ring ownership to the survivors.
func (h *Health) Evictions() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evictions
}

// Handbacks counts evicted replicas that were re-admitted and handed their
// owned cells back.
func (h *Health) Handbacks() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handbacks
}
