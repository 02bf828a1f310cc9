// Command route is the shape-hash front-end of a sharded tuning fleet: it
// owns no tuner state itself, just the ownership mapping. Each /query is
// forwarded to the cmd/serve replica that owns the shape's slice of the
// (log M·N, log K) plane, failing over to the next shard in ring order when
// the owner is unreachable; POST /sweep fans a whole grid out across the
// fleet in chunks (churn-safe: chunks of a replica that dies mid-sweep
// re-dispatch through the ring, honoring the caller's forwarded chunk size
// and attempt budget); /stats merges the fleet's counters with a
// per-replica breakdown including each replica's health state.
//
// The router keeps a health plane over the fleet: a replica that fails a
// request is marked dead and skipped — costing the fleet at most one probe
// timeout per -health-cooldown window instead of one timeout per query or
// chunk — and a background prober hits dead replicas' GET /healthz every
// -health-probe interval, re-admitting a replica the moment it restarts.
// A replica dead past -rebalance-after cooldown windows is evicted from the
// consistent-hash ownership ring: its cells rebalance to the surviving
// replicas (queries and chunks route there directly, no failover hop) until
// re-admission hands exactly those cells back. /stats reports the eviction
// and hand-back counters plus each replica's evicted flag.
//
// /sweep speaks both protocol generations: a plain POST answers with the
// buffered v1 JSON body, while a client sending Accept: application/x-ndjson
// (or "stream": true in the request) gets the v2 NDJSON frame stream —
// result frames as the fleet's chunks complete, then a terminal done or
// error frame — so whole-grid sweeps proxy without buffering the grid.
//
// Example (two replicas on one host):
//
//	serve -addr :8081 -shard 0/2 &
//	serve -addr :8082 -shard 1/2 &
//	route -addr :8080 -replicas http://localhost:8081,http://localhost:8082
//	curl 'localhost:8080/query?m=4096&n=8192&k=8192&prim=AR'
//	curl 'localhost:8080/stats'
//
// The replica order given to -replicas must match the shard indices the
// replicas were started with: replica i in the list serves -shard i/n.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		replicas   = flag.String("replicas", "", "comma-separated replica base URLs, in shard order (replica i runs -shard i/n)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request replica timeout (covers a cold-shape tune)")
		cooldown   = flag.Duration("health-cooldown", shard.DefaultHealthCooldown, "how long a failed replica is skipped before one trial request is allowed through (must be > 0: benching cannot be disabled)")
		probe      = flag.Duration("health-probe", 0, "background /healthz probe interval for dead-replica re-admission (0 = the health cooldown)")
		rebalance  = flag.Int("rebalance-after", shard.DefaultEvictAfter, "cooldown windows a replica must stay dead before its ring cells rebalance to the survivors (0 disables eviction)")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline for proxied /query and /sweep (0 = none); a timed-out sweep aborts its in-flight replica chunks")
	)
	flag.Parse()

	if *replicas == "" {
		fatal(fmt.Errorf("-replicas is required (e.g. http://host1:8080,http://host2:8080)"))
	}
	if *cooldown <= 0 {
		// SetCooldown silently ignores non-positive values; fail loudly
		// instead of leaving the operator on the 15s default unawares.
		fatal(fmt.Errorf("-health-cooldown must be > 0 (got %v); replica benching cannot be disabled", *cooldown))
	}
	// ParseReplicas rejects duplicate URLs: replica position is shard
	// identity, so a URL listed twice would silently skew the ownership
	// plane (two slots, one real replica) instead of failing here.
	urls, err := shard.ParseReplicas(*replicas)
	fatal(err)
	httpClient := shard.NewHTTPClient(*timeout, shard.DefaultInflight)
	clients := make([]shard.Client, len(urls))
	for i, u := range urls {
		clients[i] = &shard.HTTPClient{Base: u, HTTP: httpClient}
	}
	router, err := shard.NewRouter(clients)
	fatal(err)
	router.Health().SetCooldown(*cooldown)
	router.Health().SetEvictAfter(*rebalance)
	// Probe dead replicas for the process lifetime: a replica that
	// restarts is re-admitted and reclaims its shard slice without
	// waiting for an in-band trial request.
	stopProber := router.StartProber(context.Background(), *probe)
	defer stopProber()

	log.Printf("routing %d shards on %s:", len(urls), *addr)
	for i, u := range urls {
		log.Printf("  shard %d/%d -> %s", i, len(urls), u)
	}
	// Like cmd/serve: nil only on graceful signal shutdown; listen errors
	// exit non-zero.
	fatal(serve.Run(*addr, router.HandlerWithTimeout(*reqTimeout)))
	log.Printf("shut down cleanly")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "route:", err)
		os.Exit(1)
	}
}
