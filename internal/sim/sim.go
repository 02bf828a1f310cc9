// Package sim provides a small deterministic discrete-event simulation
// kernel. All higher-level device, kernel, and communication models in this
// repository are driven by a single Simulator instance: they schedule
// closures at absolute or relative virtual times, and the simulator executes
// them in (time, insertion-order) order until the event queue drains.
//
// Times are virtual nanoseconds held in an int64, mirroring time.Duration.
// Determinism matters: experiment harnesses compare latencies across many
// configurations, and tests assert exact event orderings, so ties are broken
// by a monotonically increasing sequence number rather than map iteration or
// pointer order.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is deliberately not time.Duration so that accidental mixing
// of wall-clock and virtual time fails to compile.
type Time int64

// Common duration units, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit, e.g. "12.34µs".
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t overflows back to t, so the magnitude cannot be formatted.
		return fmt.Sprintf("%dns", int64(t))
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gµs", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// FromMicros converts floating-point microseconds to a Time.
func FromMicros(us float64) Time { return Time(us*float64(Microsecond) + 0.5) }

// event is a scheduled closure.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (at, seq).
func (e event) before(o event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// typed rather than built on container/heap, whose interface{} Push and Pop
// box every event onto the heap.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event. The vacated tail slot is
// cleared so the heap's spare capacity holds no closure.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Simulator executes scheduled events in virtual-time order.
type Simulator struct {
	now     Time
	seq     uint64
	queue   eventHeap
	running bool
	steps   uint64
	// MaxSteps bounds the number of events executed by Run; 0 means
	// unlimited. It exists as a safety net for tests exercising models
	// that could otherwise livelock (e.g. a signal that never fires).
	MaxSteps uint64
}

// New returns a simulator with the clock at zero.
func New() *Simulator {
	s := new(Simulator)
	s.Reset()
	return s
}

// Reset returns s to the state New leaves it in: clock, sequence and step
// count at zero, no queued events and no MaxSteps. The queue keeps its
// memory, so a reused simulator schedules without growing it again.
func (s *Simulator) Reset() {
	if s.running {
		panic("sim: Reset called from inside an event")
	}
	clear(s.queue)
	*s = Simulator{queue: s.queue[:0]}
}

// Grow makes room for n more queued events, so scheduling them does not
// grow the queue.
func (s *Simulator) Grow(n int) { s.queue = slices.Grow(s.queue, n) }

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Steps reports how many events have been executed so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: models in this repository never rewind, and a silent
// clamp would hide bugs in duration arithmetic.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (s *Simulator) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Run executes events until the queue is empty (or MaxSteps is exceeded, in
// which case it panics, since that always indicates a model bug).
func (s *Simulator) Run() {
	s.enter()
	defer s.exit()
	for len(s.queue) > 0 {
		s.step()
	}
}

// enter marks an event loop as running. Every loop (Run, RunCtx, RunUntil)
// panics when entered from inside another's event: a nested loop would
// run later events before the current one returns.
func (s *Simulator) enter() {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
}

func (s *Simulator) exit() { s.running = false }

// step executes the earliest queued event.
func (s *Simulator) step() {
	e := s.queue.pop()
	s.now = e.at
	s.steps++
	if s.MaxSteps != 0 && s.steps > s.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v", s.MaxSteps, s.now))
	}
	e.fn()
}

// interruptStride is how many events RunCtx executes between context polls.
// Polling ctx.Err() takes a lock, so a per-event check would tax the hottest
// loop in the repository; a stride of 64 keeps the overhead unmeasurable
// while still stopping a cancelled simulation within a few kernel
// boundaries. The stride is phase-locked to the deterministic step counter,
// so whether a run is cancelled at step N never depends on scheduling.
const interruptStride = 64

// RunCtx executes events like Run but polls ctx every interruptStride
// events, stopping early with ctx.Err() when the context is cancelled or
// its deadline passes. Events execute at their scheduled boundaries — a
// closure mid-execution is never interrupted, so models observe
// cancellation only between events (for the GEMM models, between wave
// retirements and kernel completions, never mid-kernel). A cancelled run
// leaves the remaining queue intact until Reset clears it; the core
// runner resets its simulator before every execution, cancelled or not.
func (s *Simulator) RunCtx(ctx context.Context) error {
	s.enter()
	defer s.exit()
	for len(s.queue) > 0 {
		if s.steps%interruptStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.step()
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued. It reports whether the queue drained completely. Like Run, it
// panics when called from inside an event.
func (s *Simulator) RunUntil(deadline Time) bool {
	s.enter()
	defer s.exit()
	for len(s.queue) > 0 {
		if s.queue[0].at > deadline {
			s.now = deadline
			return false
		}
		s.step()
	}
	return true
}

// Pending reports the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

// MaxTime is the largest representable virtual time.
const MaxTime = Time(1<<63 - 1)

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
