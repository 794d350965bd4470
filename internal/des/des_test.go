package des

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mobickpt/internal/obs"
	"mobickpt/internal/rng"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	sim := New()
	var fired []Time
	times := []Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		sim.At(at, "e", func(s *Simulator, now Time) {
			fired = append(fired, now)
		})
	}
	sim.Run(100)
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of order: %v", fired)
		}
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		sim.At(1, "tie", func(s *Simulator, now Time) {
			order = append(order, i)
		})
	}
	sim.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestHandlersCanSchedule(t *testing.T) {
	sim := New()
	count := 0
	var tick Handler
	tick = func(s *Simulator, now Time) {
		count++
		if count < 5 {
			s.After(1, "tick", tick)
		}
	}
	sim.After(1, "tick", tick)
	sim.Run(100)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if sim.Now() != 100 {
		t.Fatalf("clock should advance to horizon when queue drains, got %v", sim.Now())
	}
}

func TestHorizonRespected(t *testing.T) {
	sim := New()
	fired := map[Time]bool{}
	for _, at := range []Time{1, 2, 3} {
		at := at
		sim.At(at, "e", func(s *Simulator, now Time) { fired[at] = true })
	}
	sim.Run(2) // events at exactly the horizon fire
	if !fired[1] || !fired[2] || fired[3] {
		t.Fatalf("horizon handling wrong: %v", fired)
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d", sim.Pending())
	}
	sim.Run(3)
	if !fired[3] {
		t.Fatal("resumed run did not fire remaining event")
	}
}

func TestCancel(t *testing.T) {
	sim := New()
	fired := false
	e := sim.At(1, "e", func(s *Simulator, now Time) { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	if !sim.Cancel(e) {
		t.Fatal("cancel should succeed")
	}
	if e.Pending() {
		t.Fatal("canceled event still pending")
	}
	if sim.Cancel(e) {
		t.Fatal("double cancel should fail")
	}
	sim.Run(10)
	if fired {
		t.Fatal("canceled event fired")
	}
	if sim.Cancel(nil) {
		t.Fatal("cancel(nil) should be a no-op")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	sim := New()
	var events []*Event
	var fired []Time
	for i := 1; i <= 20; i++ {
		at := Time(i)
		events = append(events, sim.At(at, "e", func(s *Simulator, now Time) {
			fired = append(fired, now)
		}))
	}
	// Cancel every third event and verify the rest fire in order.
	want := []Time{}
	for i, e := range events {
		if i%3 == 1 {
			sim.Cancel(e)
		} else {
			want = append(want, e.Time())
		}
	}
	sim.Run(100)
	if len(fired) != len(want) {
		t.Fatalf("fired %d, want %d", len(fired), len(want))
	}
	for i := range fired {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestStop(t *testing.T) {
	sim := New()
	count := 0
	for i := 0; i < 10; i++ {
		sim.At(Time(i), "e", func(s *Simulator, now Time) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	sim.Run(100)
	if count != 3 {
		t.Fatalf("count after stop = %d", count)
	}
	if sim.Pending() != 7 {
		t.Fatalf("pending = %d", sim.Pending())
	}
	// A subsequent Run resumes.
	sim.Run(100)
	if count != 10 {
		t.Fatalf("count after resume = %d", count)
	}
}

func TestStep(t *testing.T) {
	sim := New()
	count := 0
	sim.At(5, "e", func(s *Simulator, now Time) { count++ })
	if !sim.Step() {
		t.Fatal("step should fire")
	}
	if count != 1 || sim.Now() != 5 {
		t.Fatalf("count=%d now=%v", count, sim.Now())
	}
	if sim.Step() {
		t.Fatal("step on empty queue should return false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	sim := New()
	sim.At(10, "e", func(s *Simulator, now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, "past", func(*Simulator, Time) {})
	})
	sim.Run(100)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, "e", func(*Simulator, Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().At(1, "e", nil)
}

func TestFiredCount(t *testing.T) {
	sim := New()
	for i := 0; i < 5; i++ {
		sim.At(Time(i), "e", func(*Simulator, Time) {})
	}
	n := sim.Run(100)
	if n != 5 || sim.Fired() != 5 {
		t.Fatalf("n=%d fired=%d", n, sim.Fired())
	}
}

func TestLabel(t *testing.T) {
	sim := New()
	e := sim.At(1, "hello", func(*Simulator, Time) {})
	if e.Label() != "hello" {
		t.Fatalf("label = %q", e.Label())
	}
}

// Property: for any random multiset of schedule times, execution order is
// the sorted order.
func TestPropertyOrderIsSorted(t *testing.T) {
	src := rng.New(99)
	f := func(raw []uint16) bool {
		sim := New()
		var fired []Time
		times := make([]Time, len(raw))
		for i, r := range raw {
			times[i] = Time(r % 1000)
			at := times[i]
			sim.At(at, "e", func(s *Simulator, now Time) { fired = append(fired, now) })
		}
		sim.Run(2000)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != len(times) {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		_ = src
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving scheduling from handlers never violates the
// clock monotonicity invariant.
func TestPropertyClockMonotone(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		sim := New()
		last := Time(-1)
		violated := false
		var spawn Handler
		remaining := 200
		spawn = func(s *Simulator, now Time) {
			if now < last {
				violated = true
			}
			last = now
			if remaining > 0 {
				remaining--
				s.After(Time(src.Exp(1.0)), "spawn", spawn)
				if src.Bernoulli(0.3) && remaining > 0 {
					remaining--
					s.After(Time(src.Exp(2.0)), "spawn", spawn)
				}
			}
		}
		sim.After(0, "seed", spawn)
		sim.Run(1e9)
		if violated {
			t.Fatal("clock went backwards")
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	src := rng.New(1)
	delays := make([]Time, 1024)
	for i := range delays {
		delays[i] = Time(src.Exp(1.0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := New()
		n := 0
		var h Handler
		h = func(s *Simulator, now Time) {
			if n < 1024 {
				s.After(delays[n&1023], "e", h)
				n++
			}
		}
		sim.After(0, "e", h)
		sim.Run(1e18)
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	sim := New()
	src := rng.New(1)
	// Keep a standing population of 4096 events: every fired event
	// reschedules itself, so pop one / push one forever.
	var h Handler
	h = func(s *Simulator, now Time) {
		s.After(Time(src.Float64()), "e", h)
	}
	for i := 0; i < 4096; i++ {
		sim.At(Time(src.Float64()), "e", h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	f()
}

func TestReentrantRunPanics(t *testing.T) {
	sim := New()
	sim.At(1, "outer", func(s *Simulator, now Time) {
		s.Run(10)
	})
	mustPanic(t, "re-entrant Run", func() { sim.Run(5) })
}

func TestNegativeHorizonPanics(t *testing.T) {
	sim := New()
	mustPanic(t, "negative horizon", func() { sim.Run(-1) })
}

// A NaN compares false with everything: "at < now" lets it through,
// no queue can order it, and "event time > NaN horizon" never ends a
// run. Every scheduling entry point and Run refuse one, on either queue.
func TestNaNTimeRefused(t *testing.T) {
	nan := Time(math.NaN())
	noop := func(*Simulator, Time) {}
	argNoop := func(*Simulator, Time, any) {}
	for _, kind := range []QueueKind{QueueHeap, QueueCalendar} {
		sim := NewWith(kind)
		pending := sim.At(1, "pending", noop)
		for _, tc := range []struct {
			name     string
			schedule func()
		}{
			{"At", func() { sim.At(nan, "e", noop) }},
			{"After", func() { sim.After(nan, "e", noop) }},
			{"Schedule", func() { sim.Schedule(nan, "e", noop) }},
			{"ScheduleAfter", func() { sim.ScheduleAfter(nan, "e", noop) }},
			{"ScheduleArg", func() { sim.ScheduleArg(nan, "e", argNoop, nil) }},
			{"ScheduleArgAfter", func() { sim.ScheduleArgAfter(nan, "e", argNoop, nil) }},
			{"ScheduleArgKeyed", func() { sim.ScheduleArgKeyed(nan, KeyFor(0, 0), "e", argNoop, nil) }},
			{"Reschedule", func() { sim.Reschedule(pending, nan) }},
		} {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) { mustPanic(t, "NaN time", tc.schedule) })
		}
		if sim.Pending() != 1 || !pending.Pending() || pending.Time() != 1 {
			t.Fatalf("%s: refused schedules left %d events pending, the original at %v", kind, sim.Pending(), pending.Time())
		}
		mustPanic(t, "NaN horizon", func() { sim.Run(nan) })
		if got := sim.Run(2); got != 1 {
			t.Fatalf("%s: Run after the refusals fired %d events, want 1", kind, got)
		}
	}
}

func TestHorizonBeforeNowPanics(t *testing.T) {
	sim := New()
	sim.At(5, "e", func(s *Simulator, now Time) {})
	sim.Run(10) // clock advances to 10
	mustPanic(t, "before current time", func() { sim.Run(3) })
}

func TestRunRecoversAfterHandlerPanic(t *testing.T) {
	sim := New()
	sim.At(1, "boom", func(s *Simulator, now Time) { panic("boom") })
	func() {
		defer func() { recover() }()
		sim.Run(10)
	}()
	// The running flag must not stay latched after a handler panic, or
	// every later Run would be falsely rejected as re-entrant.
	sim.At(sim.Now()+1, "ok", func(s *Simulator, now Time) {})
	if got := sim.Run(20); got != 1 {
		t.Fatalf("post-panic Run fired %d events, want 1", got)
	}
}

func TestInstrumentCountsLabels(t *testing.T) {
	sim := New()
	reg := obs.NewRegistry()
	sim.Instrument(reg)
	sim.At(1, "alpha", func(s *Simulator, now Time) {})
	sim.At(2, "alpha", func(s *Simulator, now Time) {})
	sim.At(3, "beta", func(s *Simulator, now Time) {
		s.After(1, "gamma", func(s *Simulator, now Time) {})
	})
	sim.Run(10)
	snap := reg.Snapshot()
	if v, _ := snap.Get("des_events_by_label_total", "label", "alpha"); v != 2 {
		t.Fatalf("alpha fired = %d, want 2", v)
	}
	if v, _ := snap.Get("des_events_by_label_total", "label", "gamma"); v != 1 {
		t.Fatalf("gamma fired = %d, want 1", v)
	}
	if v, _ := snap.Get("des_events_fired_total"); v != 4 {
		t.Fatalf("events fired = %d, want 4", v)
	}
	if v, ok := snap.Get("des_queue_depth"); !ok || v != 0 {
		t.Fatalf("queue depth = %d (%v), want 0", v, ok)
	}
}

func TestInstrumentNilRegistryIsNoop(t *testing.T) {
	sim := New()
	sim.Instrument(nil)
	sim.At(1, "e", func(s *Simulator, now Time) {})
	if got := sim.Run(10); got != 1 {
		t.Fatalf("fired %d", got)
	}
}
