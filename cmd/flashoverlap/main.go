// Command flashoverlap runs a single overlapped GEMM+collective on the
// simulated cluster and prints its timeline: per-group signal and
// communication times, the comparison against the sequential baseline, and
// the theoretical bound.
//
// Example:
//
//	flashoverlap -platform 4090 -gpus 4 -prim AR -m 4096 -n 8192 -k 8192 -tune
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/trace"
	"repro/internal/tuner"
)

func main() {
	var (
		platName  = flag.String("platform", "4090", "hardware profile: 4090, a800, ascend")
		gpus      = flag.Int("gpus", 4, "parallel group size")
		primName  = flag.String("prim", "AR", "communication primitive: AR, RS, A2A")
		m         = flag.Int("m", 4096, "GEMM M (per GPU)")
		n         = flag.Int("n", 8192, "GEMM N")
		k         = flag.Int("k", 8192, "GEMM K")
		part      = flag.String("partition", "", "wave-group sizes, e.g. 1,2,2 (default: one wave per group)")
		tune      = flag.Bool("tune", false, "run the predictive search for the partition")
		imb       = flag.Float64("imbalance", 0, "A2A load imbalance factor (>= 1)")
		showTrace = flag.Bool("trace", false, "render an ASCII timeline of device 0")
		traceJSON = flag.String("tracejson", "", "write a Chrome trace-event file")
	)
	flag.Parse()

	plat, err := hw.ByName(*platName)
	fatal(err)
	prim, err := parsePrim(*primName)
	fatal(err)
	shape := gemm.Shape{M: *m, N: *n, K: *k}

	opts := core.Options{Plat: plat, NGPUs: *gpus, Shape: shape, Prim: prim, Imbalance: *imb,
		Trace: *showTrace || *traceJSON != ""}
	switch {
	case *tune:
		tn := tuner.NewTuner(plat, *gpus, prim)
		p, err := tn.Tune(context.Background(), shape, *imb)
		fatal(err)
		opts.Partition = p
		fmt.Printf("tuned partition: %v\n", p)
	case *part != "":
		p, err := parsePartition(*part)
		fatal(err)
		opts.Partition = p
	}

	res, err := core.Run(context.Background(), opts)
	fatal(err)
	base, err := baselines.NonOverlap(baselines.Options{Plat: plat, NGPUs: *gpus, Shape: shape, Prim: prim, Imbalance: *imb})
	fatal(err)
	bound, err := core.TheoreticalBound(opts)
	fatal(err)

	fmt.Printf("\n%s  %v  GEMM+%s  %d GPUs\n", plat.Name, shape, prim.Short(), *gpus)
	fmt.Printf("partition %v over %d waves (wave size %d tiles)\n\n", res.Partition, res.Waves, res.WaveSize)
	fmt.Printf("%-8s %-7s %-7s %-12s %-12s %s\n", "group", "waves", "tiles", "bytes", "signal", "comm end")
	bounds := res.Partition.BoundsClamped(res.Plan, res.WaveSize)
	for g, gt := range res.Groups {
		b := bounds[g]
		fmt.Printf("G%-7d %-7d %-7d %-12s %-12v %v\n",
			g+1, b.WaveHi-b.WaveLo, b.Tiles(), fmt.Sprintf("%.1f MB", float64(gt.Bytes)/1e6), gt.SignalAt, gt.CommEnd)
	}
	fmt.Printf("\nGEMM end:          %v\n", res.GEMMEnd)
	fmt.Printf("overlap latency:   %v\n", res.Latency)
	fmt.Printf("non-overlap:       %v\n", base)
	fmt.Printf("theoretical bound: %v\n", bound)
	fmt.Printf("speedup:           %.3fx (achieves %.1f%% of the perfect-overlap bound)\n",
		res.Speedup(base), 100*float64(bound)/float64(res.Latency))

	if *showTrace {
		fmt.Printf("\ntimeline (#=compute, ==communication):\n%s", trace.FromSpans(res.Trace).Render(76))
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		fatal(err)
		fatal(trace.FromSpans(res.Trace).WriteChromeTrace(f))
		fatal(f.Close())
		fmt.Printf("\nChrome trace written to %s\n", *traceJSON)
	}
}

func parsePrim(s string) (hw.Primitive, error) {
	switch s {
	case "AR", "allreduce", "AllReduce":
		return hw.AllReduce, nil
	case "RS", "reducescatter", "ReduceScatter":
		return hw.ReduceScatter, nil
	case "A2A", "alltoall", "AllToAll":
		return hw.AllToAll, nil
	}
	return 0, fmt.Errorf("unknown primitive %q (want AR, RS, or A2A)", s)
}

func parsePartition(s string) (gemm.Partition, error) {
	var p gemm.Partition
	for _, f := range splitComma(s) {
		var v int
		if _, err := fmt.Sscanf(f, "%d", &v); err != nil {
			return nil, fmt.Errorf("bad partition element %q", f)
		}
		p = append(p, v)
	}
	return p, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashoverlap:", err)
		os.Exit(1)
	}
}
