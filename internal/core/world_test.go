package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gemm"
	"repro/internal/hw"
)

// reuseCases are two plans a world alternates between: they differ in
// platform, GPU count and group count, so every part of the world is
// resized between them.
func reuseCases(t *testing.T) (a, b *Compiled) {
	t.Helper()
	var err error
	if a, err = Compile(Options{Plat: hw.RTX4090PCIe(), NGPUs: 4,
		Shape: gemm.Shape{M: 4096, N: 8192, K: 4096}, Prim: hw.AllReduce}); err != nil {
		t.Fatal(err)
	}
	if b, err = Compile(Options{Plat: hw.A800NVLink(), NGPUs: 2,
		Shape: gemm.Shape{M: 2048, N: 8192, K: 8192}, Prim: hw.ReduceScatter,
		Partition: gemm.Partition{5, 6}}); err != nil {
		t.Fatal(err)
	}
	if len(a.bounds) == len(b.bounds) {
		t.Fatalf("both plans have %d groups", len(a.bounds))
	}
	return a, b
}

func execIn(t *testing.T, ctx context.Context, w *world, c *Compiled, trace bool) *Result {
	t.Helper()
	v := c.DefaultVariant()
	v.Trace = trace
	res, err := c.exec(ctx, w, v)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A world that runs A, then B, then A again returns equal results for both
// runs of A, and each equals the run in a fresh world, traced or not.
func TestReusedWorldMatchesFreshWorld(t *testing.T) {
	a, b := reuseCases(t)
	ctx := context.Background()
	for _, trace := range []bool{false, true} {
		w := new(world)
		first := execIn(t, ctx, w, a, trace)
		other := execIn(t, ctx, w, b, trace)
		again := execIn(t, ctx, w, a, trace)
		if !reflect.DeepEqual(first, again) {
			t.Errorf("trace %v: A after B in one world differs from A before it:\n%+v\n%+v", trace, again, first)
		}
		if fresh := execIn(t, ctx, new(world), a, trace); !reflect.DeepEqual(again, fresh) {
			t.Errorf("trace %v: A in a reused world differs from A in a fresh one", trace)
		}
		if fresh := execIn(t, ctx, new(world), b, trace); !reflect.DeepEqual(other, fresh) {
			t.Errorf("trace %v: B in a reused world differs from B in a fresh one", trace)
		}
		if trace && len(first.Trace) == 0 {
			t.Errorf("traced run recorded no spans")
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its polls+1-th
// call on.
type pollCtx struct {
	context.Context
	polls int
}

func (c *pollCtx) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// A run cancelled mid-simulation leaves its queued events, blocked streams
// and reserved SMs in the world; the next execution there, of the same
// plan or another, still matches a fresh world's and ends with no SMs
// reserved. The first poll is execute's own, the next ones the
// simulator's, before its first event and then every interruptStride
// events.
func TestCancelledRunLeavesWorldReusable(t *testing.T) {
	a, b := reuseCases(t)
	inFlight := false
	for _, next := range []*Compiled{a, b} {
		want := execIn(t, context.Background(), new(world), next, true)
		for polls := 1; polls <= 3; polls++ {
			w := new(world)
			_, err := a.exec(&pollCtx{Context: context.Background(), polls: polls}, w, a.DefaultVariant())
			if err != context.Canceled {
				t.Fatalf("after %d polls: got %v, want context.Canceled", polls, err)
			}
			if w.cluster.Sim.Pending() == 0 {
				t.Fatalf("after %d polls: the cancelled run left no events", polls)
			}
			inFlight = inFlight || w.cluster.Devices[0].CommReservedSMs() != 0
			if got := execIn(t, context.Background(), w, next, true); !reflect.DeepEqual(got, want) {
				t.Errorf("after a run cancelled at poll %d, the world's next run differs from a fresh one", polls+1)
			}
			for _, d := range w.cluster.Devices {
				if n := d.CommReservedSMs(); n != 0 {
					t.Errorf("after a run cancelled at poll %d, the next run left %d SMs reserved on device %d", polls+1, n, d.ID)
				}
			}
		}
	}
	if !inFlight {
		t.Error("no run was cancelled with a collective in flight")
	}
}

// A result owns its slices: later executions in its world leave its
// Groups, Partition and Trace as they were.
func TestResultOutlivesItsWorld(t *testing.T) {
	a, b := reuseCases(t)
	ctx := context.Background()
	w := new(world)
	res := execIn(t, ctx, w, a, true)
	groups, part, trace := slices.Clone(res.Groups), res.Partition.Clone(), slices.Clone(res.Trace)
	execIn(t, ctx, w, b, true)
	execIn(t, ctx, w, a, true)
	if !reflect.DeepEqual(res.Groups, groups) || !reflect.DeepEqual(res.Partition, part) || !reflect.DeepEqual(res.Trace, trace) {
		t.Fatal("a result changed when later executions reused its world")
	}
}
