package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/gemm"
	"repro/internal/hw"
)

// A result's groups carry only what the execution measured; each group's
// number is its index and its extent follows from the result's partition
// and wave size. Partition.BoundsClamped(Plan, WaveSize) must give exactly
// the bounds the execution ran with — the compiled bounds, or rebind's for a
// wave-size override given as a variant — one per group. The cases cover
// both backends, all three primitives (All-to-All skewed 1.3x), per-wave
// and grouped partitions, and Fig. 14's misconfigured wave width (true SMs
// + 20), under which trailing groups drop.
func TestResultGroupsFollowFromPartition(t *testing.T) {
	plat := hw.RTX4090PCIe()
	mw := plat.GPU.SMs - plat.CommSMs + 20
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096} // 2048 tiles, 17 true waves
	parts := []gemm.Partition{
		gemm.PerWave(17), // two trailing groups drop at the misconfigured width
		{2, 5, 5, 5},     // grouped
		{1, 2, 4, 10},    // grouped, clamped last group
		{10, 4, 2, 1},    // the last group drops at the misconfigured width
	}
	overrides := []struct{ compile, exec int }{
		{0, 0},   // the true width
		{mw, mw}, // misconfigured at compile time
		{0, mw},  // misconfigured as a variant
		{mw, 0},  // a variant restoring the true width
	}
	dropped := false
	for _, prim := range []hw.Primitive{hw.AllReduce, hw.ReduceScatter, hw.AllToAll} {
		curve := comm.SampleCurve(plat, 4, prim, comm.DefaultSampleSizes())
		for _, part := range parts {
			for _, ov := range overrides {
				o := Options{Plat: plat, NGPUs: 4, Shape: shape, Prim: prim, Partition: part, WaveSizeOverride: ov.compile}
				if prim == hw.AllToAll {
					o.Imbalance = 1.3
				}
				name := fmt.Sprintf("%s/%v/override %d->%d", prim.Short(), part, ov.compile, ov.exec)
				c, err := Compile(o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				v := c.DefaultVariant()
				v.WaveSizeOverride = ov.exec
				want := c.bounds
				if ov.exec != ov.compile {
					if _, want, err = c.rebind(ov.exec); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				res, err := c.Exec(context.Background(), v)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkGroupsFollow(t, "des "+name, res, want)
				if ov.exec == 0 && ov.compile == 0 {
					v.Fidelity = FidelityAnalytic
					res, err := c.ExecAnalytic(v, curve)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkGroupsFollow(t, "analytic "+name, res, want)
				}
				dropped = dropped || len(want) < len(part)
			}
		}
	}
	if !dropped {
		t.Fatal("no case dropped a trailing group")
	}
}

func checkGroupsFollow(t *testing.T, name string, res *Result, want []gemm.GroupBound) {
	t.Helper()
	got := res.Partition.BoundsClamped(res.Plan, res.WaveSize)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: BoundsClamped gives %v, the execution ran %v", name, got, want)
	}
	if len(res.Groups) != len(want) {
		t.Fatalf("%s: %d groups for %d bounds", name, len(res.Groups), len(want))
	}
}
