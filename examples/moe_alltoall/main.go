// moe_alltoall runs the GEMM+All-to-All pattern of a Mixture-of-Experts
// layer (§2.3.3): every GPU computes its experts' output, tokens are routed
// to their origin GPUs by the subtoken-pool reordering, and each wave
// group's exchange is released by the counting-table signal. The example
// verifies the routed outputs against a reference exchange and shows how
// routing imbalance stretches the communication.
//
//	go run ./examples/moe_alltoall
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/tensor"
)

func main() {
	ctx := context.Background()
	plat := hw.RTX4090PCIe()
	plat.GPU.SMs = 8
	plat.CommSMs = 2
	const nGPUs = 4

	shape := gemm.Shape{M: 32, N: 64, K: 12}
	// Deterministic skewed routing: GPU 0 receives a double share, the
	// MoE hot-expert pattern.
	routing := make([][]int, nGPUs)
	for i := range routing {
		routing[i] = make([]int, shape.M)
		for r := range routing[i] {
			d := (r*5 + i) % (nGPUs + 1)
			if d >= nGPUs {
				d = 0
			}
			routing[i][r] = d
		}
	}

	res, err := core.Run(ctx, core.Options{
		Plat:       plat,
		NGPUs:      nGPUs,
		Shape:      shape,
		Cfg:        gemm.Config{TileM: 8, TileN: 8, Swizzle: 2},
		Prim:       hw.AllToAll,
		Functional: true,
		Routing:    routing,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Verify every GPU's routed output against the reference exchange of
	// the full (unreordered) expert outputs.
	fulls := make([]*tensor.Matrix, nGPUs)
	for d := 0; d < nGPUs; d++ {
		fulls[d] = tensor.New(shape.M, shape.N)
		gemm.ComputeReference(fulls[d], res.InputA(d), res.InputB(d), nil)
	}
	ex := res.A2AExchangeLayout()
	for d := 0; d < nGPUs; d++ {
		if !res.A2AOutput(d).Equal(ex.ReferenceOutput(d, fulls)) {
			log.Fatalf("GPU %d routed output differs from reference", d)
		}
		fmt.Printf("GPU %d receives %d tokens — all close\n", d, ex.TokensTo(d))
	}

	fmt.Println("\nwave-group exchange timeline:")
	bounds := res.Partition.BoundsClamped(res.Plan, res.WaveSize)
	for g, gt := range res.Groups {
		fmt.Printf("  G%d: %d tiles, max per-rank payload %.1f KB, done at %v\n",
			g+1, bounds[g].Tiles(), float64(gt.Bytes)/1e3, gt.CommEnd)
	}

	// Timing-only runs show the imbalance cost at realistic scale.
	big := core.Options{Plat: hw.RTX4090PCIe(), NGPUs: nGPUs,
		Shape: gemm.Shape{M: 4096, N: 8192, K: 8192}, Prim: hw.AllToAll}
	bal, err := core.Run(ctx, big)
	if err != nil {
		log.Fatal(err)
	}
	big.Imbalance = 1.5
	hot, err := core.Run(ctx, big)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat scale (M4096-N8192-K8192): balanced %v, 1.5x-skewed %v (+%.0f%%)\n",
		bal.Latency, hot.Latency, 100*(float64(hot.Latency)/float64(bal.Latency)-1))
}
