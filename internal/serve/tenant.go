package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// MaxTenantLen bounds the tenant label. Labels are map keys held for the
// process lifetime and echoed into /stats, so an unbounded label would let
// one misbehaving client grow the stats endpoint without limit.
const MaxTenantLen = 64

// ValidateTenant checks an optional tenant label: empty (no tenant) is
// always valid; otherwise 1..MaxTenantLen characters of [A-Za-z0-9._-].
// The charset keeps labels safe to echo into URLs, JSON keys, and log
// lines unquoted. Failures are BadQueryErrors — deterministic rejections
// every replica shares.
func ValidateTenant(t string) error {
	if t == "" {
		return nil
	}
	if len(t) > MaxTenantLen {
		return badQueryf("serve: tenant label longer than %d bytes", MaxTenantLen)
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return badQueryf("serve: tenant label %q: character %q not in [A-Za-z0-9._-]", t, c)
		}
	}
	return nil
}

// tenantMetrics is one tenant's live instruments. Created once on the
// tenant's first labeled request; every later record is a map read under
// RLock plus atomic adds — no allocation, which keeps the pre-encoded warm
// /query path's zero-alloc contract intact.
type tenantMetrics struct {
	queries, hits, swept atomic.Uint64
	latency              metrics.Histogram
}

// tenantFor returns the tenant's instruments, creating them on first use.
// The caller is expected to have validated the label at the request edge.
func (s *Service) tenantFor(tenant string) *tenantMetrics {
	s.tenantsMu.RLock()
	tm := s.tenants[tenant]
	s.tenantsMu.RUnlock()
	if tm != nil {
		return tm
	}
	s.tenantsMu.Lock()
	defer s.tenantsMu.Unlock()
	if tm = s.tenants[tenant]; tm != nil {
		return tm
	}
	tm = &tenantMetrics{}
	s.tenants[tenant] = tm
	return tm
}

// ObserveQuery records one answered query into the latency plane: the
// service-wide histogram always, plus the tenant's histogram and hit/query
// counters when the query carried a label. hit marks answers served from
// the tuned-shape cache (the pre-encoded fast path included), the numerator
// of the per-tenant hit rate.
//
// The HTTP layer calls this for the warm fast path too — the path's
// zero-allocation contract holds because for a previously seen tenant this
// is a histogram bucket's atomic add plus counter adds, nothing more.
func (s *Service) ObserveQuery(tenant string, d time.Duration, hit bool) {
	s.latency.Observe(d)
	if tenant == "" {
		return
	}
	tm := s.tenantFor(tenant)
	tm.queries.Add(1)
	if hit {
		tm.hits.Add(1)
	}
	tm.latency.Observe(d)
}

// tenantSnapshots captures every tenant's counters for a Stats snapshot;
// nil when no labeled request has arrived, so the stats JSON omits the key
// and stays byte-identical to the pre-tenant wire form.
func (s *Service) tenantSnapshots() map[string]TenantStats {
	s.tenantsMu.RLock()
	defer s.tenantsMu.RUnlock()
	if len(s.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(s.tenants))
	for name, tm := range s.tenants {
		out[name] = TenantStats{
			Queries:    tm.queries.Load(),
			Hits:       tm.hits.Load(),
			SweptItems: tm.swept.Load(),
			Latency:    tm.latency.Snapshot(),
		}
	}
	return out
}
