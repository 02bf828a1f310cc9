// Package gpu models the execution semantics of a CUDA-like device on top
// of the discrete-event simulator: streams are FIFO queues of kernels,
// kernels occupy SMs for a modeled duration, signals carry cross-stream
// dependencies (the paper's counting-table signaling maps onto them), and
// rendezvous objects implement the all-ranks-must-arrive semantics of
// collective launches.
//
// Only the semantics the overlap designs depend on are modeled:
//
//   - in-order execution within a stream, concurrency across streams;
//   - kernel durations resolved at start time, so a kernel can observe how
//     many SMs the NCCL-analog has reserved at that instant (SM contention);
//   - signals that fire at a virtual timestamp and release waiting streams.
package gpu

import (
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Span records one kernel execution for tracing (Fig. 3-style timelines and
// the end-to-end breakdowns use these).
type Span struct {
	Device     int
	Stream     string
	Name       string
	Start, End sim.Time
	SMs        int
}

// Device is one simulated GPU.
type Device struct {
	ID   int
	Plat hw.Platform
	Sim  *sim.Simulator

	commSMs int // SMs currently reserved by in-flight collectives

	// Trace accumulates kernel spans when TraceEnabled is set.
	TraceEnabled bool
	Trace        []Span

	jitter stats.Jitter
	kernel uint64 // per-device kernel counter for jitter keys
}

// NewDevice creates a device bound to the simulator.
func NewDevice(s *sim.Simulator, plat hw.Platform, id int) *Device {
	d := new(Device)
	d.reset(s, plat, id)
	return d
}

// reset makes d device id of plat on s, with nothing reserved, tracing off
// and its jitter sequence restarted. The trace slice keeps its memory.
func (d *Device) reset(s *sim.Simulator, plat hw.Platform, id int) {
	if err := plat.Validate(); err != nil {
		panic(err)
	}
	*d = Device{
		ID:     id,
		Plat:   plat,
		Sim:    s,
		Trace:  d.Trace[:0],
		jitter: stats.NewJitter(plat.JitterSeed + uint64(id)*0x9e37),
	}
}

// CommReservedSMs reports the SMs currently held by collective kernels.
func (d *Device) CommReservedSMs() int { return d.commSMs }

// AvailableSMs reports SMs free for compute at this instant.
func (d *Device) AvailableSMs() int {
	n := d.Plat.GPU.SMs - d.commSMs
	if n < 1 {
		n = 1 // compute can always make some progress
	}
	return n
}

// reserveComm acquires n SMs for a collective.
func (d *Device) reserveComm(n int) {
	if n < 0 {
		panic(fmt.Sprintf("gpu: negative SM reservation %d", n))
	}
	d.commSMs += n
}

// releaseComm returns n SMs acquired by reserveComm. Releasing more than
// is reserved panics before the count is touched.
func (d *Device) releaseComm(n int) {
	if n > d.commSMs {
		panic("gpu: comm SM accounting went negative")
	}
	d.commSMs -= n
}

// JitterFactor returns the deterministic measurement-noise factor for the
// next kernel on this device. Every call advances the key so repeated
// kernels get independent (but reproducible) perturbations.
func (d *Device) JitterFactor() float64 {
	d.kernel++
	return d.jitter.Factor(d.Plat.JitterAmplitude, d.kernel)
}

func (d *Device) addSpan(sp Span) {
	if d.TraceEnabled {
		d.Trace = append(d.Trace, sp)
	}
}

// Signal is a one-shot cross-stream event. It fires at a virtual time;
// streams (or arbitrary callbacks) waiting on it resume at max(now, fire
// time). This models both CUDA events and the paper's counting-table
// signals.
type Signal struct {
	sim     *sim.Simulator
	name    string
	fired   bool
	at      sim.Time
	waiters []waiter
}

// waiter is one party blocked on a signal: a Wait callback, or a stream
// blocked in WaitSignal, which resumes on its poll boundary.
type waiter struct {
	fn   func(at sim.Time)
	st   *Stream
	poll sim.Time
}

// NewSignal creates an unfired signal.
func NewSignal(s *sim.Simulator, name string) *Signal {
	sig := new(Signal)
	sig.Reset(s, name)
	return sig
}

// Reset makes s an unfired signal on sm named name, with no waiters, as
// NewSignal builds it. The waiter list keeps its memory.
func (s *Signal) Reset(sm *sim.Simulator, name string) {
	clear(s.waiters)
	*s = Signal{sim: sm, name: name, waiters: s.waiters[:0]}
}

// Fire marks the signal as fired at the current virtual time and wakes
// waiters. Firing twice panics: the counting table only crosses each group
// threshold once.
func (s *Signal) Fire() {
	if s.fired {
		panic(fmt.Sprintf("gpu: signal %q fired twice", s.name))
	}
	s.fired = true
	s.at = s.sim.Now()
	for _, w := range s.waiters {
		if w.st != nil {
			w.st.resume(s.at, w.poll)
		} else {
			w.fn(s.at)
		}
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Fired reports whether the signal has fired, and when.
func (s *Signal) Fired() (bool, sim.Time) { return s.fired, s.at }

// Wait invokes fn as soon as the signal has fired (immediately if it
// already has). fn receives the fire time.
func (s *Signal) Wait(fn func(at sim.Time)) {
	if s.fired {
		fn(s.at)
		return
	}
	s.waiters = append(s.waiters, waiter{fn: fn})
}

// opKind selects what a stream op does.
type opKind uint8

const (
	opKernel opKind = iota // run kernel
	opWait                 // block until sig fires, then wait for a poll
	opRecord               // fire sig
	opJoin                 // join rendezvous rv
)

// op is one queue entry in a stream. It is stored by value, and only the
// fields its kind names are set.
type op struct {
	kind   opKind
	poll   sim.Time
	kernel *KernelSpec
	sig    *Signal
	rv     *Rendezvous
}

// Stream is an in-order execution queue on one device.
type Stream struct {
	Dev  *Device
	Name string

	queue   []op // queue[head:] is pending; reused from the start once drained
	head    int
	running bool
	idle    []func() // callbacks for Drain

	// done completes the running op and starts the next; it is built once
	// so scheduling a completion allocates nothing.
	done func()
	// kernel and start describe the running kernel, if the running op is
	// one, for its completion.
	kernel *KernelSpec
	start  sim.Time
}

// NewStream creates a named stream on dev.
func NewStream(dev *Device, name string) *Stream {
	st := new(Stream)
	st.Reset(dev, name)
	return st
}

// Reset makes st an idle, empty stream named name on dev, as NewStream
// builds it, dropping whatever a cancelled run left queued. The queue keeps
// its memory.
func (st *Stream) Reset(dev *Device, name string) {
	done := st.done
	if done == nil {
		done = st.complete
	}
	clear(st.queue)
	*st = Stream{Dev: dev, Name: name, queue: st.queue[:0], done: done}
}

// Grow makes room for n more queued ops, so enqueueing them does not grow
// the queue.
func (st *Stream) Grow(n int) { st.queue = slices.Grow(st.queue, n) }

func (st *Stream) enqueue(o op) {
	st.queue = append(st.queue, o)
	st.pump()
}

func (st *Stream) pump() {
	if st.running {
		return
	}
	if st.head == len(st.queue) {
		st.queue, st.head = st.queue[:0], 0
		for _, fn := range st.idle {
			fn()
		}
		st.idle = nil
		return
	}
	st.running = true
	next := st.queue[st.head]
	st.queue[st.head] = op{}
	st.head++
	switch next.kind {
	case opKernel:
		st.startKernel(next.kernel)
	case opWait:
		next.sig.block(st, next.poll)
	case opRecord:
		next.sig.Fire()
		st.complete()
	case opJoin:
		next.rv.join(st)
	}
}

// complete finishes the running op, a kernel's span and OnComplete first,
// and advances the stream.
func (st *Stream) complete() {
	if k := st.kernel; k != nil {
		st.kernel = nil
		dev := st.Dev
		end := dev.Sim.Now()
		dev.addSpan(Span{Device: dev.ID, Stream: st.Name, Name: k.Name, Start: st.start, End: end, SMs: k.SMs})
		if k.OnComplete != nil {
			k.OnComplete(end)
		}
	}
	st.running = false
	st.pump()
}

// KernelSpec describes a compute kernel to launch.
type KernelSpec struct {
	Name string
	// SMs the kernel will be attributed in the trace (informational; the
	// duration function is responsible for folding contention in).
	SMs int
	// Duration resolves the kernel's runtime at its start instant; it may
	// inspect the device (e.g. AvailableSMs) to model contention.
	Duration func(dev *Device, start sim.Time) sim.Time
	// OnStart, if non-nil, runs at the kernel's start time.
	OnStart func(start sim.Time)
	// OnComplete, if non-nil, runs at the kernel's end time; this is where
	// functional work (actual arithmetic/data movement) happens.
	OnComplete func(end sim.Time)
}

// startKernel begins the kernel at the current instant; the stream's done
// callback completes it.
func (st *Stream) startKernel(k *KernelSpec) {
	dev := st.Dev
	start := dev.Sim.Now()
	if k.OnStart != nil {
		k.OnStart(start)
	}
	d := k.Duration(dev, start)
	if d < 0 {
		panic(fmt.Sprintf("gpu: kernel %q negative duration %v", k.Name, d))
	}
	st.kernel, st.start = k, start
	dev.Sim.After(d, st.done)
}

// Launch enqueues a kernel on the stream.
func (st *Stream) Launch(spec KernelSpec) {
	if spec.Duration == nil {
		panic(fmt.Sprintf("gpu: kernel %q has no duration model", spec.Name))
	}
	st.enqueue(op{kind: opKernel, kernel: &spec})
}

// block holds st until s fires, then resumes it (see resume). Waiters,
// streams and Wait callbacks alike, wake in registration order.
func (s *Signal) block(st *Stream, poll sim.Time) {
	if s.fired {
		st.resume(s.at, poll)
		return
	}
	s.waiters = append(s.waiters, waiter{st: st, poll: poll})
}

// resume completes the stream's wait on a signal that fired at time at,
// once the waiting stream can have seen it.
func (st *Stream) resume(at, poll sim.Time) {
	s := st.Dev.Sim
	t := sim.Max(s.Now(), at)
	// The signaling kernel polls the counting table periodically (§5);
	// quantize the release to the next poll boundary to model that cost.
	// poll == 0 means an ideal, instantaneous wait.
	if poll > 0 {
		offset := t % poll
		if offset != 0 {
			t += poll - offset
		}
	}
	s.At(t, st.done)
}

// WaitSignal blocks the stream until sig fires. poll > 0 quantizes the
// wake-up to the signaling kernel's polling period.
func (st *Stream) WaitSignal(sig *Signal, poll sim.Time) {
	st.enqueue(op{kind: opWait, sig: sig, poll: poll})
}

// Record enqueues an event that fires sig once all previously enqueued work
// on the stream has completed (CUDA's cudaEventRecord).
func (st *Stream) Record(sig *Signal) {
	st.enqueue(op{kind: opRecord, sig: sig})
}

// OnDrain registers fn to run the next time the stream has no queued or
// running work. If the stream is already idle, fn runs immediately.
func (st *Stream) OnDrain(fn func()) {
	if !st.running && st.head == len(st.queue) {
		fn()
		return
	}
	st.idle = append(st.idle, fn)
}

// Rendezvous coordinates a collective launch across n streams: each
// participant enqueues a Join op; the collective's duration is resolved once
// every rank has arrived, SMs are reserved on every device for its
// lifetime, and all participant streams resume together at the end.
type Rendezvous struct {
	Name string
	// Duration resolves the collective's runtime once all ranks arrived.
	Duration func(start sim.Time) sim.Time
	// SMs reserved per device while the collective is in flight.
	SMs int
	// OnComplete runs once (not per rank) at the end time; functional
	// data movement goes here.
	OnComplete func(end sim.Time)

	n        int
	parts    []*Stream // participants in arrival order, capacity n
	started  bool
	released bool
	start    sim.Time
	// end is rv.finish, bound once so scheduling it allocates nothing.
	end func()
}

// NewRendezvous creates a rendezvous for n participants.
func NewRendezvous(name string, n int, smPerDev int, duration func(start sim.Time) sim.Time) *Rendezvous {
	rv := new(Rendezvous)
	rv.Reset(name, n, smPerDev, duration)
	return rv
}

// Reset makes rv a rendezvous for n participants that nobody has joined,
// as NewRendezvous builds it, with no OnComplete. The participant list
// keeps its memory.
func (rv *Rendezvous) Reset(name string, n int, smPerDev int, duration func(start sim.Time) sim.Time) {
	if n < 1 {
		panic("gpu: rendezvous needs at least one participant")
	}
	end := rv.end
	if end == nil {
		end = rv.finish
	}
	clear(rv.parts)
	*rv = Rendezvous{Name: name, Duration: duration, SMs: smPerDev, n: n, parts: slices.Grow(rv.parts[:0], n), end: end}
}

// join adds st as the next participant. The stream stays blocked until the
// collective started by the last arrival ends.
func (rv *Rendezvous) join(st *Stream) {
	if rv.started {
		panic(fmt.Sprintf("gpu: join on already-started rendezvous %q", rv.Name))
	}
	if len(rv.parts) == rv.n {
		panic(fmt.Sprintf("gpu: rendezvous %q has more joins than participants", rv.Name))
	}
	rv.parts = append(rv.parts, st)
	if len(rv.parts) < rv.n {
		return
	}
	rv.started = true
	s := st.Dev.Sim
	rv.start = s.Now()
	for _, p := range rv.parts {
		p.Dev.reserveComm(rv.SMs)
	}
	d := rv.Duration(rv.start)
	if d < 0 {
		panic(fmt.Sprintf("gpu: rendezvous %q negative duration %v", rv.Name, d))
	}
	s.After(d, rv.end)
}

// finish ends the collective: spans, SM release, OnComplete, then every
// participant's stream advances in arrival order.
func (rv *Rendezvous) finish() {
	end := rv.parts[0].Dev.Sim.Now()
	for _, p := range rv.parts {
		p.Dev.addSpan(Span{Device: p.Dev.ID, Stream: p.Name, Name: rv.Name, Start: rv.start, End: end, SMs: rv.SMs})
	}
	rv.release()
	if rv.OnComplete != nil {
		rv.OnComplete(end)
	}
	for _, p := range rv.parts {
		p.complete()
	}
}

// release returns the SMs the collective holds on every participant's
// device. It runs once per collective.
func (rv *Rendezvous) release() {
	if rv.released {
		panic("gpu: double release of comm SMs")
	}
	rv.released = true
	for _, p := range rv.parts {
		p.Dev.releaseComm(rv.SMs)
	}
}

// Join enqueues this stream's participation in the rendezvous.
func (st *Stream) Join(rv *Rendezvous) {
	st.enqueue(op{kind: opJoin, rv: rv})
}

// Cluster is a convenience holder for an n-GPU node sharing one simulator.
type Cluster struct {
	Sim     *sim.Simulator
	Plat    hw.Platform
	Devices []*Device
}

// NewCluster builds n devices of plat on a new simulator.
func NewCluster(plat hw.Platform, n int) *Cluster {
	c := new(Cluster)
	c.Reset(plat, n)
	return c
}

// Reset makes c a cluster of n devices of plat, as NewCluster builds it:
// a simulator at time zero, devices with nothing reserved, tracing off. It
// reuses c's simulator and devices, and allocates only the devices c has
// never held.
func (c *Cluster) Reset(plat hw.Platform, n int) {
	if n < 1 {
		panic("gpu: cluster needs at least one device")
	}
	if c.Sim == nil {
		c.Sim = new(sim.Simulator)
	}
	c.Sim.Reset()
	c.Sim.MaxSteps = 50_000_000 // livelock guard for model bugs
	c.Plat = plat
	devs := c.Devices[:cap(c.Devices)]
	for len(devs) < n {
		devs = append(devs, new(Device))
	}
	c.Devices = devs[:n]
	for i, d := range c.Devices {
		d.reset(c.Sim, plat, i)
	}
}

// N reports the number of devices.
func (c *Cluster) N() int { return len(c.Devices) }

// EnableTrace turns on span recording for every device.
func (c *Cluster) EnableTrace() {
	for _, d := range c.Devices {
		d.TraceEnabled = true
	}
}
