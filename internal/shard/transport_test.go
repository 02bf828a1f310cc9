package shard

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/serve"
)

// loopbackFleet is n replicas, each serve.Handler on a loopback listener
// that counts the connections it accepts and the /sweep chunks it serves,
// and a router over HTTPClients sharing one transport.
type loopbackFleet struct {
	router        *Router
	conns, chunks []atomic.Int64
}

func newLoopbackFleet(tb testing.TB, n int) *loopbackFleet {
	tb.Helper()
	f := &loopbackFleet{conns: make([]atomic.Int64, n), chunks: make([]atomic.Int64, n)}
	transport := &http.Transport{}
	tb.Cleanup(transport.CloseIdleConnections)
	clients := make([]Client, n)
	for k := range n {
		a := Assignment{Index: k, Count: n}
		svc, err := serve.New(serve.Config{
			Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, Owns: a.Owns, Shard: a.String(), Curves: sharedCurves(tb),
		})
		if err != nil {
			tb.Fatal(err)
		}
		inner := serve.Handler(svc)
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/sweep" {
				f.chunks[k].Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				f.conns[k].Add(1)
			}
		}
		srv.Start()
		tb.Cleanup(srv.Close)
		clients[k] = &HTTPClient{Base: srv.URL, HTTP: &http.Client{Transport: transport}}
	}
	r, err := NewRouter(clients)
	if err != nil {
		tb.Fatal(err)
	}
	f.router = r
	return f
}

// totalChunks is the number of /sweep chunks the fleet has served.
func (f *loopbackFleet) totalChunks() int64 {
	var n int64
	for k := range f.chunks {
		n += f.chunks[k].Load()
	}
	return n
}

// cubeItems is a shape cube of untuned AllReduce items, labelled fid.
func cubeItems(dims []int, fid string) []serve.SweepItem {
	var items []serve.SweepItem
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				items = append(items, serve.SweepItem{M: m, N: n, K: k, Prim: "AR", Fidelity: fid})
			}
		}
	}
	return items
}

// defaultChunks is the number of default-size chunks a two-replica fleet
// cuts the items at idxs into: one queue per owner.
func defaultChunks(items []serve.SweepItem, idxs []int) []int {
	part := NewPartitioner(2)
	per := make([]int, 2)
	for _, i := range idxs {
		per[part.Owner(items[i].Shape())]++
	}
	for k, n := range per {
		per[k] = (n + DefaultChunkSize - 1) / DefaultChunkSize
	}
	return per
}

// An untuned mixed sweep at Spec.Chunk 0 runs at DefaultChunkSize over two
// loopback replicas, on a grid whose analytic tier gives each replica at
// least three default chunks. Its merge is byte-identical to
// engine.MixedBatch, and each replica serves every chunk it runs over one
// connection: each reply ends with its terminal frame, so the transport
// reuses the connection for the next chunk.
func TestDefaultChunkMixedSweepOverHTTP(t *testing.T) {
	items := cubeItems([]int{512, 1024, 1536, 2048, 3072, 4096, 6144, 8192}, "")
	all := make([]int, len(items))
	for i := range all {
		all[i] = i
	}
	analytic := defaultChunks(items, all)
	for k, c := range analytic {
		if c < 3 {
			t.Fatalf("replica %d owns %d default chunks of the analytic tier, want at least 3", k, c)
		}
	}
	refJSON, refined := coordMixedReference(t, items)
	des := defaultChunks(items, refined)

	f := newLoopbackFleet(t, 2)
	co := NewCoordinator(f.router)
	co.Spec.Fidelity = serve.FidelityMixed
	results, err := co.Sweep(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("default-chunk mixed sweep over HTTP diverges from engine.MixedBatch")
	}
	checkMixedLabels(t, results, refined)
	want := int64(analytic[0] + analytic[1] + des[0] + des[1])
	if got := f.totalChunks(); got != want {
		t.Fatalf("%d chunks served, want %d: %v analytic and %v DES chunks of %d items", got, want, analytic, des, DefaultChunkSize)
	}
	for k := range f.conns {
		if n := f.conns[k].Load(); n != 1 {
			t.Errorf("replica %d served %d chunks over %d connections, want 1", k, f.chunks[k].Load(), n)
		}
	}
}

// BenchmarkCoordinatorStreamHTTP times the sweep ladder's last rung: a
// Coordinator streaming an analytic grid from two replicas over loopback
// HTTP, at chunk 8 and at the default. Both replicas run in the
// benchmark's process, so ns/item and allocs/item cover both sides of
// the wire.
func BenchmarkCoordinatorStreamHTTP(b *testing.B) {
	items := cubeItems([]int{1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384}, serve.FidelityAnalytic)
	f := newLoopbackFleet(b, 2)
	for _, bc := range []struct {
		name  string
		chunk int
	}{{"chunk=8", 8}, {"chunk=default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			co := NewCoordinator(f.router)
			co.Spec.Chunk = bc.chunk
			sink := func(int, SweepResult) error { return nil }
			chunks := f.totalChunks()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sweeps := 0
			for b.Loop() {
				if err := co.Stream(context.Background(), items, sink); err != nil {
					b.Fatal(err)
				}
				sweeps++
			}
			runtime.ReadMemStats(&after)
			perItem := float64(sweeps * len(items))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perItem, "ns/item")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perItem, "allocs/item")
			b.ReportMetric(float64(f.totalChunks()-chunks)/float64(sweeps), "chunks/sweep")
		})
	}
}
