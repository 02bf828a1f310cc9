package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// The deployment cmd/serve runs by default: the 4090 profile, 4 GPUs and a
// 512-candidate search budget, as two k/2 replicas behind cmd/route.
const (
	nGPUs          = 4
	candidateLimit = 512
	nReplicas      = 2
)

// platform is the 4090 profile; a function so no package state is shared.
func platform() hw.Platform { return hw.RTX4090PCIe() }

// benchPrims are the primitives the workloads query and sweep. The fleet
// samples their bandwidth curves once and shares them across replicas, as
// a sharded deployment does.
var benchPrims = []hw.Primitive{hw.AllReduce, hw.ReduceScatter}

// server is one loopback listener serving a handler.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests, and returns once
// the serving goroutine has exited.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// fleet is the system under test, built the way users run it: replicas
// behind serve.Handler, a shard.Router over shard.HTTPClients, and a real
// loopback listener for each.
type fleet struct {
	svcs      []*serve.Service
	router    *shard.Router
	routerURL string
	servers   []*server
	transport *http.Transport
	curves    map[hw.Primitive]*stats.Curve

	curveDur, warmDur time.Duration
}

// buildFleet builds and warms the fleet. tr, when non-nil, wraps every
// handler, client and transport for the traced run.
func buildFleet(ctx context.Context, warm []gemm.Shape, tr *tracer) (*fleet, error) {
	start := time.Now()
	f := &fleet{curves: make(map[hw.Primitive]*stats.Curve)}
	for _, p := range benchPrims {
		f.curves[p] = tuner.SampleBandwidthCurve(platform(), nGPUs, p, nil)
	}
	f.curveDur = time.Since(start)
	for k := 0; k < nReplicas; k++ {
		a := shard.Assignment{Index: k, Count: nReplicas}
		svc, err := serve.New(serve.Config{
			Plat:           platform(),
			NGPUs:          nGPUs,
			CandidateLimit: candidateLimit,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         f.curves,
		})
		if err != nil {
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
	}
	warmStart := time.Now()
	for _, svc := range f.svcs {
		if err := svc.Warm(ctx, []hw.Primitive{hw.AllReduce}, warm, 0); err != nil {
			return nil, err
		}
	}
	f.warmDur = time.Since(warmStart)

	f.transport = &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0), DisableCompression: true}
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = transport{t: tr, inner: f.transport}
	}
	hc := &http.Client{Timeout: shard.DefaultTimeout, Transport: rt}
	var clients []shard.Client
	for _, svc := range f.svcs {
		h := serve.Handler(svc)
		if tr != nil {
			h = tr.handler(h, spanServeQuery, spanServeSweep)
		}
		s, err := listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		var c shard.Client = &shard.HTTPClient{Base: s.url, HTTP: hc}
		if tr != nil {
			c = client{t: tr, inner: c}
		}
		clients = append(clients, c)
	}
	router, err := shard.NewRouter(clients)
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = router
	h := router.Handler()
	if tr != nil {
		h = tr.handler(h, spanRouteQuery, spanRouteQuery)
	}
	s, err := listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, s)
	f.routerURL = s.url
	return f, nil
}

func (f *fleet) close() {
	// The router first, so no request reaches a replica mid-shutdown.
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// stats merges the replicas' counters.
func (f *fleet) stats() serve.Stats {
	var st serve.Stats
	for _, svc := range f.svcs {
		st = st.Merge(svc.Stats())
	}
	return st
}

// setup builds the fleet reps (at least one) times, running extra after
// each build, and keeps the last build; the earlier ones are closed. It
// returns each build's duration in seconds.
func setup(ctx context.Context, reps int, warm []gemm.Shape, tr *tracer, extra func(*fleet) error) (*fleet, []float64, error) {
	var (
		f    *fleet
		durs []float64
	)
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = buildFleet(ctx, warm, tr); err != nil {
			return nil, nil, err
		}
		if extra != nil {
			if err := extra(f); err != nil {
				f.close()
				return nil, nil, err
			}
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return f, durs, nil
}
