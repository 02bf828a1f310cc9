package gpu

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func testCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	return NewCluster(hw.RTX4090PCIe(), n)
}

func fixed(d sim.Time) func(*Device, sim.Time) sim.Time {
	return func(*Device, sim.Time) sim.Time { return d }
}

func TestStreamRunsKernelsInOrder(t *testing.T) {
	c := testCluster(t, 1)
	st := NewStream(c.Devices[0], "compute")
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		st.Launch(KernelSpec{
			Name:       "k",
			Duration:   fixed(10),
			OnComplete: func(end sim.Time) { ends = append(ends, end) },
		})
	}
	c.Sim.Run()
	want := []sim.Time{10, 20, 30}
	if len(ends) != 3 {
		t.Fatalf("ends = %v", ends)
	}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestStreamsRunConcurrently(t *testing.T) {
	c := testCluster(t, 1)
	a := NewStream(c.Devices[0], "a")
	b := NewStream(c.Devices[0], "b")
	var endA, endB sim.Time
	a.Launch(KernelSpec{Name: "ka", Duration: fixed(100), OnComplete: func(e sim.Time) { endA = e }})
	b.Launch(KernelSpec{Name: "kb", Duration: fixed(100), OnComplete: func(e sim.Time) { endB = e }})
	c.Sim.Run()
	if endA != 100 || endB != 100 {
		t.Fatalf("streams serialized: endA=%v endB=%v, want both 100", endA, endB)
	}
}

func TestSignalGatesStream(t *testing.T) {
	c := testCluster(t, 1)
	dev := c.Devices[0]
	comp := NewStream(dev, "compute")
	comm := NewStream(dev, "comm")
	sig := NewSignal(c.Sim, "tileGroup")

	comp.Launch(KernelSpec{Name: "gemm", Duration: fixed(50)})
	comp.Record(sig)

	var commStart sim.Time = -1
	comm.WaitSignal(sig, 0)
	comm.Launch(KernelSpec{Name: "nccl", Duration: fixed(30), OnStart: func(s sim.Time) { commStart = s }})
	c.Sim.Run()
	if commStart != 50 {
		t.Fatalf("comm started at %v, want 50 (after signal)", commStart)
	}
}

func TestSignalAlreadyFired(t *testing.T) {
	c := testCluster(t, 1)
	sig := NewSignal(c.Sim, "s")
	sig.Fire()
	var at sim.Time = -1
	sig.Wait(func(a sim.Time) { at = a })
	if at != 0 {
		t.Fatalf("waiter on fired signal got %v, want immediate 0", at)
	}
	if ok, _ := sig.Fired(); !ok {
		t.Fatal("Fired() = false after Fire")
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	c := testCluster(t, 1)
	sig := NewSignal(c.Sim, "s")
	sig.Fire()
	defer func() {
		if recover() == nil {
			t.Error("double fire did not panic")
		}
	}()
	sig.Fire()
}

func TestWaitSignalPollQuantization(t *testing.T) {
	c := testCluster(t, 1)
	dev := c.Devices[0]
	comp := NewStream(dev, "compute")
	comm := NewStream(dev, "comm")
	sig := NewSignal(c.Sim, "s")

	comp.Launch(KernelSpec{Name: "gemm", Duration: fixed(55)})
	comp.Record(sig)

	var start sim.Time = -1
	comm.WaitSignal(sig, 20) // polls at 0,20,40,60 -> wakes at 60
	comm.Launch(KernelSpec{Name: "k", Duration: fixed(1), OnStart: func(s sim.Time) { start = s }})
	c.Sim.Run()
	if start != 60 {
		t.Fatalf("poll-quantized start = %v, want 60", start)
	}
}

func TestRecordFiresAfterPriorWork(t *testing.T) {
	c := testCluster(t, 1)
	st := NewStream(c.Devices[0], "s")
	sig := NewSignal(c.Sim, "done")
	st.Launch(KernelSpec{Name: "k1", Duration: fixed(10)})
	st.Launch(KernelSpec{Name: "k2", Duration: fixed(15)})
	st.Record(sig)
	c.Sim.Run()
	ok, at := sig.Fired()
	if !ok || at != 25 {
		t.Fatalf("record fired=%v at=%v, want true at 25", ok, at)
	}
}

func TestRendezvousWaitsForAllRanks(t *testing.T) {
	c := testCluster(t, 2)
	s0 := NewStream(c.Devices[0], "comm")
	s1 := NewStream(c.Devices[1], "comm")

	var collStart, collEnd sim.Time = -1, -1
	rv := NewRendezvous("allreduce", 2, 4, func(start sim.Time) sim.Time {
		collStart = start
		return 40
	})
	rv.OnComplete = func(end sim.Time) { collEnd = end }

	// Rank 0 arrives at t=10, rank 1 at t=30.
	s0.Launch(KernelSpec{Name: "pre0", Duration: fixed(10)})
	s0.Join(rv)
	s1.Launch(KernelSpec{Name: "pre1", Duration: fixed(30)})
	s1.Join(rv)

	var after0, after1 sim.Time = -1, -1
	s0.Launch(KernelSpec{Name: "post0", Duration: fixed(1), OnStart: func(t sim.Time) { after0 = t }})
	s1.Launch(KernelSpec{Name: "post1", Duration: fixed(1), OnStart: func(t sim.Time) { after1 = t }})

	c.Sim.Run()
	if collStart != 30 {
		t.Fatalf("collective started at %v, want 30 (last arrival)", collStart)
	}
	if collEnd != 70 {
		t.Fatalf("collective ended at %v, want 70", collEnd)
	}
	if after0 != 70 || after1 != 70 {
		t.Fatalf("post kernels at %v/%v, want both 70", after0, after1)
	}
}

func TestRendezvousReservesSMs(t *testing.T) {
	c := testCluster(t, 2)
	s0 := NewStream(c.Devices[0], "comm")
	s1 := NewStream(c.Devices[1], "comm")
	comp := NewStream(c.Devices[0], "compute")

	rv := NewRendezvous("coll", 2, 8, func(sim.Time) sim.Time { return 100 })
	s0.Join(rv)
	s1.Join(rv)

	var seen int = -1
	// A compute kernel starting mid-collective must observe fewer SMs.
	comp.Launch(KernelSpec{Name: "idle", Duration: fixed(50)})
	comp.Launch(KernelSpec{
		Name: "gemm",
		Duration: func(dev *Device, _ sim.Time) sim.Time {
			seen = dev.AvailableSMs()
			return 1
		},
	})
	c.Sim.Run()
	total := c.Plat.GPU.SMs
	if seen != total-8 {
		t.Fatalf("mid-collective AvailableSMs = %d, want %d", seen, total-8)
	}
	if got := c.Devices[0].AvailableSMs(); got != total {
		t.Fatalf("post-collective AvailableSMs = %d, want %d (SMs not released)", got, total)
	}
}

func TestRendezvousTooManyJoinsPanics(t *testing.T) {
	c := testCluster(t, 1)
	st := NewStream(c.Devices[0], "s")
	rv := NewRendezvous("r", 1, 0, func(sim.Time) sim.Time { return 1 })
	st.Join(rv)
	st.Join(rv)
	defer func() {
		if recover() == nil {
			t.Error("extra join did not panic")
		}
	}()
	c.Sim.Run()
}

func TestTraceSpans(t *testing.T) {
	c := testCluster(t, 1)
	c.EnableTrace()
	st := NewStream(c.Devices[0], "compute")
	st.Launch(KernelSpec{Name: "gemm", SMs: 96, Duration: fixed(25)})
	c.Sim.Run()
	tr := c.Devices[0].Trace
	if len(tr) != 1 {
		t.Fatalf("trace has %d spans, want 1", len(tr))
	}
	sp := tr[0]
	if sp.Name != "gemm" || sp.Start != 0 || sp.End != 25 || sp.SMs != 96 || sp.Stream != "compute" {
		t.Fatalf("span = %+v", sp)
	}
}

func TestOnDrain(t *testing.T) {
	c := testCluster(t, 1)
	st := NewStream(c.Devices[0], "s")
	var drainAt sim.Time = -1
	st.Launch(KernelSpec{Name: "k", Duration: fixed(42)})
	st.OnDrain(func() { drainAt = c.Sim.Now() })
	c.Sim.Run()
	if drainAt != 42 {
		t.Fatalf("drain at %v, want 42", drainAt)
	}
	// Already-idle stream invokes immediately.
	ran := false
	st.OnDrain(func() { ran = true })
	if !ran {
		t.Fatal("OnDrain on idle stream should run immediately")
	}
}

func TestJitterFactorAdvances(t *testing.T) {
	c := testCluster(t, 1)
	d := c.Devices[0]
	a, b := d.JitterFactor(), d.JitterFactor()
	if a == b {
		t.Fatalf("consecutive jitter factors identical: %v", a)
	}
	amp := 1 + c.Plat.JitterAmplitude
	for _, f := range []float64{a, b} {
		if f < 1 || f >= amp {
			t.Fatalf("jitter factor %v out of [1,%v)", f, amp)
		}
	}
}

func TestDeviceJitterDiffersAcrossDevices(t *testing.T) {
	c := testCluster(t, 2)
	if c.Devices[0].JitterFactor() == c.Devices[1].JitterFactor() {
		t.Fatal("devices share jitter streams")
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	c := testCluster(t, 1)
	st := NewStream(c.Devices[0], "s")
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	// The stream is idle, so Launch pumps (and panics) immediately.
	st.Launch(KernelSpec{Name: "bad", Duration: fixed(-1)})
}

func TestLaunchWithoutDurationPanics(t *testing.T) {
	c := testCluster(t, 1)
	st := NewStream(c.Devices[0], "s")
	defer func() {
		if recover() == nil {
			t.Error("nil duration did not panic")
		}
	}()
	st.Launch(KernelSpec{Name: "bad"})
}

func TestClusterConstruction(t *testing.T) {
	c := NewCluster(hw.A800NVLink(), 4)
	if c.N() != 4 {
		t.Fatalf("N() = %d, want 4", c.N())
	}
	for i, d := range c.Devices {
		if d.ID != i {
			t.Fatalf("device %d has ID %d", i, d.ID)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-device cluster did not panic")
		}
	}()
	NewCluster(hw.A800NVLink(), 0)
}

// wantPanic calls fn and checks that it panics with msg.
func wantPanic(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != msg {
			t.Errorf("recovered %v, want panic %q", r, msg)
		}
	}()
	fn()
}

func TestRendezvousReleaseTwicePanics(t *testing.T) {
	c := testCluster(t, 2)
	rv := NewRendezvous("coll", 2, 8, func(sim.Time) sim.Time { return 10 })
	NewStream(c.Devices[0], "comm").Join(rv)
	NewStream(c.Devices[1], "comm").Join(rv)
	c.Sim.Run() // reserves on both devices, then releases once
	wantPanic(t, "gpu: double release of comm SMs", rv.release)
	for _, d := range c.Devices {
		if got := d.CommReservedSMs(); got != 0 {
			t.Errorf("device %d holds %d comm SMs after a double release, want 0", d.ID, got)
		}
	}
}

func TestCommAccountingNeverGoesNegative(t *testing.T) {
	d := testCluster(t, 1).Devices[0]
	d.reserveComm(4)
	wantPanic(t, "gpu: comm SM accounting went negative", func() { d.releaseComm(5) })
	if got := d.CommReservedSMs(); got != 4 {
		t.Fatalf("CommReservedSMs() = %d after an over-release, want 4", got)
	}
	d.releaseComm(4)
	wantPanic(t, "gpu: comm SM accounting went negative", func() { d.releaseComm(1) })
	if got := d.CommReservedSMs(); got != 0 {
		t.Fatalf("CommReservedSMs() = %d, want 0", got)
	}
	wantPanic(t, "gpu: negative SM reservation -1", func() { d.reserveComm(-1) })
}

// Wait callbacks and streams blocked in WaitSignal share one waiter list:
// on Fire they wake in registration order, so events they schedule for the
// same instant run in that order too.
func TestSignalWakesWaitersInRegistrationOrder(t *testing.T) {
	c := testCluster(t, 1)
	sig := NewSignal(c.Sim, "s")
	var order []string
	waitEvent := func(name string) func(sim.Time) {
		return func(at sim.Time) { c.Sim.At(at, func() { order = append(order, name) }) }
	}
	sig.Wait(waitEvent("first"))
	st := NewStream(c.Devices[0], "comm")
	st.WaitSignal(sig, 0)
	st.Launch(KernelSpec{Name: "k", Duration: fixed(1), OnStart: func(sim.Time) { order = append(order, "stream") }})
	sig.Wait(waitEvent("last"))
	c.Sim.At(5, sig.Fire)
	c.Sim.Run()
	if want := []string{"first", "stream", "last"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order %v, want %v", order, want)
	}
}
