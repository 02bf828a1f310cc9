// Quickstart: overlap a GEMM with the AllReduce that follows it, verify the
// result against a sequential reference, and print the group timeline.
//
// This is the minimal FlashOverlap loop: pick a platform, a shape, and a
// primitive; run; compare with the non-overlap baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/tensor"
)

func main() {
	ctx := context.Background()
	// A shrunken RTX 4090 profile lets a small, functionally verified
	// matrix still execute in several waves.
	plat := hw.RTX4090PCIe()
	plat.GPU.SMs = 8
	plat.CommSMs = 2

	opts := core.Options{
		Plat:       plat,
		NGPUs:      4,
		Shape:      gemm.Shape{M: 32, N: 48, K: 16},
		Cfg:        gemm.Config{TileM: 8, TileN: 8, Swizzle: 2},
		Prim:       hw.AllReduce,
		Functional: true, // carry real float32 data end to end
		Seed:       2024,
	}
	res, err := core.Run(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Verify: the overlapped AllReduce output must equal sum_i(A_i*B_i).
	want := tensor.New(opts.Shape.M, opts.Shape.N)
	for d := 0; d < opts.NGPUs; d++ {
		c := tensor.New(opts.Shape.M, opts.Shape.N)
		gemm.ComputeReference(c, res.InputA(d), res.InputB(d), nil)
		want.AddInPlace(c)
	}
	for d := 0; d < opts.NGPUs; d++ {
		if !res.AROutput(d).Equal(want) {
			log.Fatalf("device %d output differs from reference", d)
		}
	}
	fmt.Println("all close: overlapped result matches the sequential reference on every GPU")

	fmt.Printf("\n%d waves, partition %v\n", res.Waves, res.Partition)
	bounds := res.Partition.BoundsClamped(res.Plan, res.WaveSize)
	for g, gt := range res.Groups {
		fmt.Printf("  G%d: %d tiles, signaled at %v, communication done at %v\n",
			g+1, bounds[g].Tiles(), gt.SignalAt, gt.CommEnd)
	}

	// Performance only matters at realistic scale: rerun timing-only on
	// the full RTX 4090 profile with a grouped partition.
	big := core.Options{
		Plat:  hw.RTX4090PCIe(),
		NGPUs: 2,
		Shape: gemm.Shape{M: 2048, N: 8192, K: 8192},
		Prim:  hw.AllReduce,
	}
	plan, err := gemm.NewPlan(big.Shape, gemm.DefaultConfig(big.Shape))
	if err != nil {
		log.Fatal(err)
	}
	waves := plan.Waves(big.Plat.GPU.SMs - big.Plat.CommSMs)
	big.Partition = gemm.EqualSized(waves, 3)
	bigRes, err := core.Run(ctx, big)
	if err != nil {
		log.Fatal(err)
	}
	base, err := baselines.NonOverlap(baselines.Options{
		Plat: big.Plat, NGPUs: big.NGPUs, Shape: big.Shape, Prim: big.Prim,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat realistic scale (%v, 2x RTX 4090):\n", big.Shape)
	fmt.Printf("  overlap %v vs non-overlap %v -> %.2fx speedup\n",
		bigRes.Latency, base, bigRes.Speedup(base))
}
