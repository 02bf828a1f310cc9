package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// directSamples bounds how many calls each direct layer timing makes.
const directSamples = 300

// tunerTimings times the tuner layer on the dynamic workload's own shapes
// against tuners rebuilt from each replica's Service.Snapshot: LookupAt on
// the owner's rebuilt cache, NewPredictor+Predict, and Tune on a second,
// throwaway rebuild so the lookups see the fleet's cache unchanged.
func tunerTimings(ctx context.Context, f *fleet, shapes []gemm.Shape, keys []int32) (map[string]float64, error) {
	var lookups, tunersForTune []*tuner.Tuner
	for _, svc := range f.svcs {
		for _, build := range []*[]*tuner.Tuner{&lookups, &tunersForTune} {
			tn, err := rebuildTuner(svc.Snapshot())
			if err != nil {
				return nil, err
			}
			*build = append(*build, tn)
		}
	}
	seen := make(map[int32]bool)
	var lookup, predict, tune []float64
	for _, k := range keys {
		if len(tune) == directSamples {
			break
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		s := shapes[k]
		owner := f.router.Owner(s)
		t0 := time.Now()
		lookups[owner].LookupAt(s, 0)
		lookup = append(lookup, us(time.Since(t0)))
		t0 = time.Now()
		part, err := tunersForTune[owner].Tune(ctx, s, 0)
		if err != nil {
			return nil, err
		}
		tune = append(tune, ms(time.Since(t0)))
		t0 = time.Now()
		pred, err := tuner.NewPredictor(platform(), s, gemm.Config{}, f.curves[hw.AllReduce], 0)
		if err != nil {
			return nil, err
		}
		if _, err := pred.Predict(part); err != nil {
			return nil, err
		}
		predict = append(predict, us(time.Since(t0)))
	}
	return map[string]float64{
		"tuner.lookup_p50_us":  percentile(lookup, 50),
		"tuner.predict_p50_us": percentile(predict, 50),
		"tuner.tune_p50_ms":    percentile(tune, 50),
		"tuner.tune_p99_ms":    percentile(tune, 99),
	}, nil
}

// rebuildTuner turns a replica's AllReduce snapshot block back into a tuner
// with the same curve, search budget and cache contents.
func rebuildTuner(snap *serve.Snapshot) (*tuner.Tuner, error) {
	for _, p := range snap.Primitives {
		if p.Prim != hw.AllReduce.String() {
			continue
		}
		tn := tuner.NewTunerWithCurve(platform(), nGPUs, hw.AllReduce, stats.NewCurve(p.Curve))
		tn.CandidateLimit = snap.CandidateLimit
		entries := make([]tuner.CacheEntry, len(p.Entries))
		for i, e := range p.Entries {
			entries[i] = tuner.CacheEntry{Shape: gemm.Shape{M: e.M, N: e.N, K: e.K}, Imbalance: e.Imbalance, Partition: e.Partition}
		}
		if err := tn.SeedCache(entries); err != nil {
			return nil, err
		}
		return tn, nil
	}
	return nil, fmt.Errorf("snapshot has no AllReduce tuner")
}

// engineTimings times one execution of sweep items at each fidelity on an
// engine seeded with the fleet's curves (plans compiled beforehand, so only
// the backend is timed), and plan compiles of Fig. 15's plans.
func engineTimings(ctx context.Context, items []serve.SweepItem, curves map[hw.Primitive]*stats.Curve) (map[string]float64, error) {
	eng := engine.New(1, 0)
	for p, c := range curves {
		eng.SeedCurve(platform(), nGPUs, p, c)
	}
	var des, analytic []float64
	for _, it := range items[:min(len(items), directSamples)] {
		q, err := it.Query()
		if err != nil {
			return nil, err
		}
		o := core.Options{Plat: platform(), NGPUs: nGPUs, Shape: q.Shape, Prim: q.Prim}
		plan, err := eng.Plan(o)
		if err != nil {
			return nil, err
		}
		for _, f := range []core.Fidelity{core.FidelityDES, core.FidelityAnalytic} {
			o.Fidelity = f
			t0 := time.Now()
			if _, err := eng.ExecPlan(ctx, plan, core.VariantOf(o)); err != nil {
				return nil, err
			}
			if f == core.FidelityDES {
				des = append(des, us(time.Since(t0)))
			} else {
				analytic = append(analytic, us(time.Since(t0)))
			}
		}
	}
	var compile []float64
	for _, o := range oraclePlans() {
		t0 := time.Now()
		if _, err := engine.Compile(o); err != nil {
			return nil, err
		}
		compile = append(compile, us(time.Since(t0)))
	}
	return map[string]float64{
		"engine.exec_des_p50_us":      percentile(des, 50),
		"engine.exec_analytic_p50_us": percentile(analytic, 50),
		"engine.compile_p50_us":       percentile(compile, 50),
	}, nil
}

// oraclePlans samples the plans expt.Fig15 compiles at full scale: its
// shapes and group sizes on both platforms, each with a spread of the
// candidate partitions it measures.
func oraclePlans() []core.Options {
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096}, {M: 4096, N: 8192, K: 8192}, {M: 8192, N: 8192, K: 2048},
		{M: 2048, N: 8192, K: 12288}, {M: 4096, N: 8192, K: 2048}, {M: 16384, N: 8192, K: 4096},
	}
	var out []core.Options
	for _, plat := range []hw.Platform{hw.RTX4090PCIe(), hw.A800NVLink()} {
		for _, n := range []int{2, 4, 8} {
			for _, s := range shapes {
				plan, err := gemm.NewPlan(s, gemm.DefaultConfig(s))
				if err != nil {
					continue
				}
				cands := tuner.Candidates(plan.Waves(plat.GPU.SMs-plat.CommSMs), tuner.DefaultS1, tuner.DefaultSP, 256)
				step := len(cands)/8 + 1
				for i := 0; i < len(cands); i += step {
					out = append(out, core.Options{Plat: plat, NGPUs: n, Shape: s, Prim: hw.AllReduce, Partition: cands[i]})
				}
			}
		}
	}
	return out
}

// wireTimings times the v2 codec on the run's own sweep frames.
func wireTimings(frames []serve.SweepFrame) (map[string]float64, error) {
	var enc, dec []float64
	for _, fr := range frames[:min(len(frames), directSamples)] {
		t0 := time.Now()
		b, err := json.Marshal(fr)
		if err != nil {
			return nil, err
		}
		enc = append(enc, us(time.Since(t0)))
		var back serve.SweepFrame
		t0 = time.Now()
		if err := json.Unmarshal(b, &back); err != nil {
			return nil, err
		}
		dec = append(dec, us(time.Since(t0)))
	}
	return map[string]float64{
		"wire.encode_p50_us": percentile(enc, 50),
		"wire.decode_p50_us": percentile(dec, 50),
	}, nil
}

// procUsage is a process-level snapshot for per-operation costs.
type procUsage struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero usage on failure reads as no CPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

// procMetrics turns two snapshots around ops operations into per-op costs.
func procMetrics(a, b procUsage, ops int, heapPeak uint64) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"proc.cpu_us_per_op":   us(b.cpu-a.cpu) / n,
		"proc.alloc_kb_per_op": float64(b.alloc-a.alloc) / 1024 / n,
		"proc.gc_per_kop":      float64(b.gcs-a.gcs) * 1000 / n,
		"proc.heap_peak_mb":    float64(heapPeak) / (1 << 20),
	}
}

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, sample[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// rssSampler records the process's resident set size every 10 ms until
// finish.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	mb   []float64
	err  error
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			// statm holds the process's size and resident set in pages.
			b, err := os.ReadFile("/proc/self/statm")
			var size, resident float64
			if err == nil {
				_, err = fmt.Sscan(string(b), &size, &resident)
			}
			if err != nil {
				s.err = fmt.Errorf("reading resident set: %w", err)
				return
			}
			s.mb = append(s.mb, resident*page/(1<<20))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, once, and returns its samples in MB.
func (s *rssSampler) finish() ([]float64, error) {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.mb, s.err
}
