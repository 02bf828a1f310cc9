package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d, want 1000", Microsecond)
	}
	if Millisecond != 1_000_000 {
		t.Fatalf("Millisecond = %d, want 1e6", Millisecond)
	}
	if Second != 1_000_000_000 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		t       Time
		seconds float64
		micros  float64
		millis  float64
	}{
		{0, 0, 0, 0},
		{Second, 1, 1e6, 1e3},
		{1500 * Microsecond, 0.0015, 1500, 1.5},
	}
	for _, c := range cases {
		if got := c.t.Seconds(); got != c.seconds {
			t.Errorf("%d.Seconds() = %v, want %v", c.t, got, c.seconds)
		}
		if got := c.t.Micros(); got != c.micros {
			t.Errorf("%d.Micros() = %v, want %v", c.t, got, c.micros)
		}
		if got := c.t.Millis(); got != c.millis {
			t.Errorf("%d.Millis() = %v, want %v", c.t, got, c.millis)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1e-9, 1e-6, 0.001, 1.5} {
		got := FromSeconds(s).Seconds()
		if diff := got - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestFromMicros(t *testing.T) {
	if got := FromMicros(2.5); got != 2500 {
		t.Fatalf("FromMicros(2.5) = %d, want 2500", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5µs"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{math.MinInt64, "-9223372036854775808ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRunExecutesInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestRunBreaksTiesByInsertionOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending insertion order", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var hits []Time
	s.At(5, func() {
		hits = append(hits, s.Now())
		s.After(10, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [5 15]", hits)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilEventPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	s.At(0, nil)
}

func TestRunUntil(t *testing.T) {
	s := New()
	var hits []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		s.At(at, func() { hits = append(hits, at) })
	}
	drained := s.RunUntil(20)
	if drained {
		t.Fatal("RunUntil(20) reported drained with a pending event at 30")
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v, want events at 10 and 20", hits)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", s.Now())
	}
	if !s.RunUntil(100) {
		t.Fatal("RunUntil(100) should drain the queue")
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %v, want 3 events", hits)
	}
}

// wantReentrantPanic runs loop and checks that it panics the way a nested
// Run does.
func wantReentrantPanic(t *testing.T, name string, loop func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != "sim: Run called reentrantly" {
			t.Errorf("%s inside an event: recovered %v, want the reentrancy panic", name, r)
		}
	}()
	loop()
}

func TestRunUntilInsideRunPanics(t *testing.T) {
	s := New()
	s.At(10, func() { wantReentrantPanic(t, "RunUntil", func() { s.RunUntil(20) }) })
	s.At(15, func() {})
	s.Run()
	if s.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2: the nested loop ran events", s.Steps())
	}
}

func TestRunInsideRunUntilPanics(t *testing.T) {
	s := New()
	s.At(10, func() { wantReentrantPanic(t, "Run", s.Run) })
	s.At(15, func() {})
	if !s.RunUntil(20) {
		t.Fatal("RunUntil(20) did not drain the queue")
	}
	if s.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2: the nested loop ran events", s.Steps())
	}
	// Neither loop is left marked as running.
	s.At(30, func() {})
	s.Run()
}

func TestMaxStepsPanics(t *testing.T) {
	s := New()
	s.MaxSteps = 10
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway event loop did not panic")
		}
	}()
	s.Run()
}

func TestPendingAndSteps(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", s.Pending())
	}
	if s.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2", s.Steps())
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
}

// Property: for any set of non-negative event offsets, Run visits them in
// non-decreasing time order and ends with the clock at the maximum offset.
func TestRunOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var visited []Time
		var maxT Time
		for _, o := range offsets {
			at := Time(o)
			if at > maxT {
				maxT = at
			}
			s.At(at, func() { visited = append(visited, s.Now()) })
		}
		s.Run()
		if len(visited) != len(offsets) {
			return false
		}
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || s.Now() == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with many ties among a few times, and events scheduled from
// inside events, Run visits events exactly in a stable sort of their
// scheduling order by time, i.e. in (time, insertion) order.
func TestRunOrderMatchesStableSort(t *testing.T) {
	f := func(offsets []uint8) bool {
		s := New()
		type ev struct {
			id int
			at Time
		}
		var scheduled, visited []ev
		var schedule func(at Time, child uint8)
		schedule = func(at Time, child uint8) {
			e := ev{id: len(scheduled), at: at}
			scheduled = append(scheduled, e)
			s.At(at, func() {
				visited = append(visited, e)
				if child > 0 && child%3 == 0 {
					schedule(s.Now()+Time(child%4), child/3)
				}
			})
		}
		for _, o := range offsets {
			schedule(Time(o%8), o)
		}
		s.Run()
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		if len(visited) != len(scheduled) {
			return false
		}
		for i := range visited {
			if visited[i] != scheduled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A warm simulator schedules and runs events without allocating: the heap
// is typed, so neither At nor the event loop boxes an event.
func TestEventLoopAllocatesNothing(t *testing.T) {
	s := New()
	fn := func() {}
	batch := func() {
		for i := 0; i < 64; i++ {
			s.After(Time(i%5), fn)
		}
		s.Run()
	}
	batch() // grow the queue to its working capacity
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Fatalf("At+Run allocated %v times per batch of 64 events, want 0", allocs)
	}
}
