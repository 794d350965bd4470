package des

import (
	"testing"
	"unsafe"

	"mobickpt/internal/race"
)

// TestHotLoopZeroAlloc is the tentpole guarantee: a steady-state loop of
// pooled fire-and-forget events — including periodic self-rescheduling
// via Again and arg-carrying events via ScheduleArg — allocates nothing
// once the free list is warm (AllocsPerRun's warm-up call primes it).
func TestHotLoopZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	s := New()
	fired := 0
	// The child handler is hoisted out of tick: a closure literal inside
	// the handler would itself allocate once per event.
	child := Handler(func(sim *Simulator, now Time) { fired++ })
	var tick Handler
	tick = func(sim *Simulator, now Time) {
		fired++
		// One fire-and-forget child per tick plus the periodic self.
		sim.ScheduleAfter(0.5, "child", child)
		if now < 90 {
			sim.Again(1)
		}
	}
	argFn := ArgHandler(func(sim *Simulator, now Time, arg any) { fired++ })
	arg := &struct{ n int }{} // preallocated payload, reused every run
	s.Schedule(0, "tick", tick)
	horizon := Time(100)
	allocs := testing.AllocsPerRun(10, func() {
		s.ScheduleArgAfter(0, "arg", argFn, arg)
		s.Run(horizon)
		horizon += 100
		s.Schedule(horizon-100, "tick", tick)
	})
	if allocs != 0 {
		t.Fatalf("hot loop allocated %v times per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired; the loop measured nothing")
	}
}

// TestPooledEventsAreReused checks the free list actually recycles: a
// long run of fire-and-forget events must not grow the heap beyond the
// number of simultaneously pending events.
func TestPooledEventsAreReused(t *testing.T) {
	s := New()
	var count int
	var h Handler
	h = func(sim *Simulator, now Time) {
		count++
		if count < 1000 {
			sim.ScheduleAfter(1, "next", h)
		}
	}
	s.ScheduleAfter(0, "next", h)
	s.Run(2000)
	if count != 1000 {
		t.Fatalf("fired %d events, want 1000", count)
	}
	// All 1000 events funneled through two pooled slots: while one event's
	// handler runs, the successor it schedules occupies the second slot,
	// and the first is recycled only after the handler returns.
	n := 0
	for e := s.free; e != nil; e = e.free {
		n++
	}
	if n == 0 {
		t.Fatal("free list empty after run; pooled events were not recycled")
	}
	if n > 2 {
		t.Fatalf("free list has %d events; expected ping-pong reuse of 2", n)
	}
}

// TestAgainKeepsEventAlive verifies a pooled event rescheduled from its
// own handler via Again is not recycled out from under itself.
func TestAgainKeepsEventAlive(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(0, "periodic", func(sim *Simulator, now Time) {
		times = append(times, now)
		if now < 5 {
			sim.Again(1)
		}
	})
	s.Run(10)
	want := []Time{0, 1, 2, 3, 4, 5}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i, at := range want {
		if times[i] != at {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestAgainOutsideHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Again outside a handler did not panic")
		}
	}()
	New().Again(1)
}

// TestCancelBookkeeping is the satellite audit: Cancel on fired, double-
// canceled, never-scheduled, foreign and nil events must neither panic
// nor disturb other queued events.
func TestCancelBookkeeping(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cancel-nil", func(t *testing.T) {
			s := New()
			if s.Cancel(nil) {
				t.Fatal("Cancel(nil) returned true")
			}
		}},
		{"cancel-zero-value", func(t *testing.T) {
			// A user-constructed Event was never scheduled; its zero index
			// (0) must not be mistaken for a live heap slot.
			s := New()
			keep := s.At(5, "keep", func(*Simulator, Time) {})
			var e Event
			if s.Cancel(&e) {
				t.Fatal("Cancel of zero-value event returned true")
			}
			if e.Pending() {
				t.Fatal("zero-value event reports Pending")
			}
			if !keep.Pending() {
				t.Fatal("canceling a zero-value event evicted an unrelated event")
			}
		}},
		{"cancel-foreign", func(t *testing.T) {
			s1, s2 := New(), New()
			e := s1.At(5, "e", func(*Simulator, Time) {})
			keep := s2.At(5, "keep", func(*Simulator, Time) {})
			if s2.Cancel(e) {
				t.Fatal("Cancel of another simulator's event returned true")
			}
			if !e.Pending() || !keep.Pending() {
				t.Fatal("foreign Cancel disturbed event state")
			}
			if !s1.Cancel(e) {
				t.Fatal("owner Cancel failed after foreign Cancel attempt")
			}
		}},
		{"cancel-after-fire", func(t *testing.T) {
			s := New()
			e := s.At(1, "e", func(*Simulator, Time) {})
			keep := s.At(5, "keep", func(*Simulator, Time) {})
			s.Run(2)
			if e.Pending() {
				t.Fatal("fired event still Pending")
			}
			if s.Cancel(e) {
				t.Fatal("Cancel after fire returned true")
			}
			if !keep.Pending() {
				t.Fatal("cancel-after-fire evicted a queued event")
			}
		}},
		{"double-cancel", func(t *testing.T) {
			s := New()
			e := s.At(1, "e", func(*Simulator, Time) {})
			keep := s.At(1, "keep", func(*Simulator, Time) {})
			if !s.Cancel(e) {
				t.Fatal("first Cancel failed")
			}
			if s.Cancel(e) {
				t.Fatal("second Cancel returned true")
			}
			if !keep.Pending() {
				t.Fatal("double Cancel evicted an unrelated event")
			}
			fired := 0
			s.At(1, "count", func(*Simulator, Time) { fired++ })
			if s.Run(2) != 2 {
				t.Fatalf("expected keep+count to fire, got %d events", fired)
			}
		}},
		{"cancel-mid-heap", func(t *testing.T) {
			// Cancel an event buried in the middle of a populated heap and
			// verify every survivor still fires exactly once, in order.
			s := New()
			var fired []int
			mk := func(i int) *Event {
				return s.At(Time(i), "e", func(_ *Simulator, now Time) {
					fired = append(fired, int(now))
				})
			}
			events := make([]*Event, 10)
			for i := range events {
				events[i] = mk(i)
			}
			s.Cancel(events[4])
			s.Cancel(events[7])
			s.Run(20)
			want := []int{0, 1, 2, 3, 5, 6, 8, 9}
			if len(fired) != len(want) {
				t.Fatalf("fired %v, want %v", fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("fired %v, want %v", fired, want)
				}
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

// TestReschedule covers moving a pending event (remove, restamp, push —
// on either queue), re-queuing fired events, and the panic contracts.
func TestReschedule(t *testing.T) {
	t.Run("pending-moves-in-place", func(t *testing.T) {
		for _, kind := range []QueueKind{QueueHeap, QueueCalendar} {
			s := NewWith(kind)
			var fired []string
			log := func(name string) Handler {
				return func(*Simulator, Time) { fired = append(fired, name) }
			}
			a := s.At(10, "a", log("a"))
			s.At(5, "b", log("b"))
			c := s.At(7, "c", log("c"))
			s.NextTime() // the calendar now has a year, and b is in its near list
			before := s.Pending()
			s.Reschedule(a, 1)   // ahead of b
			s.Reschedule(c, 1e6) // from inside the year to far beyond it
			if s.Pending() != before {
				t.Fatalf("%s: Reschedule changed queue length: %d -> %d", kind, before, s.Pending())
			}
			s.Run(2e6)
			if len(fired) != 3 || fired[0] != "a" || fired[1] != "b" || fired[2] != "c" {
				t.Fatalf("%s: fired %v, want [a b c]", kind, fired)
			}
		}
	})
	t.Run("fired-event-requeues", func(t *testing.T) {
		s := New()
		count := 0
		e := s.At(1, "e", func(*Simulator, Time) { count++ })
		s.Run(2)
		if count != 1 {
			t.Fatalf("event fired %d times, want 1", count)
		}
		s.Reschedule(e, 5)
		if !e.Pending() {
			t.Fatal("rescheduled fired event not Pending")
		}
		s.Run(10)
		if count != 2 {
			t.Fatalf("event fired %d times after requeue, want 2", count)
		}
	})
	t.Run("same-time-fires-after-queued", func(t *testing.T) {
		// Rescheduling assigns a fresh seq: among simultaneous events the
		// rescheduled one fires last (FIFO by scheduling order).
		s := New()
		var fired []string
		a := s.At(1, "a", func(*Simulator, Time) { fired = append(fired, "a") })
		s.At(3, "b", func(*Simulator, Time) { fired = append(fired, "b") })
		s.Reschedule(a, 3)
		s.Run(5)
		if len(fired) != 2 || fired[0] != "b" || fired[1] != "a" {
			t.Fatalf("fired %v, want [b a]", fired)
		}
	})
	t.Run("foreign-panics", func(t *testing.T) {
		s1, s2 := New(), New()
		e := s1.At(1, "e", func(*Simulator, Time) {})
		defer func() {
			if recover() == nil {
				t.Fatal("Reschedule of foreign event did not panic")
			}
		}()
		s2.Reschedule(e, 2)
	})
	t.Run("past-panics", func(t *testing.T) {
		s := New()
		e := s.At(5, "e", func(*Simulator, Time) {})
		s.At(2, "clock", func(*Simulator, Time) {})
		s.Step() // clock now at 2
		defer func() {
			if recover() == nil {
				t.Fatal("Reschedule into the past did not panic")
			}
		}()
		s.Reschedule(e, 1)
	})
}

// TestScheduleArgDeliversArg checks arg plumbing and FIFO ordering of
// pooled arg events against plain events at the same time.
func TestScheduleArgDeliversArg(t *testing.T) {
	s := New()
	type box struct{ v int }
	var got []int
	fn := func(_ *Simulator, _ Time, arg any) { got = append(got, arg.(*box).v) }
	s.ScheduleArg(1, "a", fn, &box{v: 7})
	s.ScheduleArgAfter(1, "b", fn, &box{v: 9})
	s.Run(2)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("got %v, want [7 9]", got)
	}
}

// TestPoolRecycleClearsState guards against stale state leaking across a
// recycle: an event reused from the free list must not retain the prior
// occupant's arg or handler.
func TestPoolRecycleClearsState(t *testing.T) {
	s := New()
	leaked := make(chan any, 1)
	s.ScheduleArg(1, "first", func(_ *Simulator, _ Time, arg any) {}, &struct{}{})
	s.Run(2)
	e := s.free
	if e == nil {
		t.Fatal("no recycled event on free list")
	}
	if e.arg != nil || e.argFn != nil || e.handler != nil || e.label != "" {
		t.Fatalf("recycled event retains state: %+v", e)
	}
	// Reuse the slot with a plain handler; the old argFn must not run.
	s.Schedule(3, "second", func(*Simulator, Time) { leaked <- nil })
	s.Run(4)
	select {
	case <-leaked:
	default:
		t.Fatal("reused event did not fire its new handler")
	}
}

// TestEventHotFieldsLeadTheStruct pins the layout fire and acquire rely
// on: the queue entry, the ArgHandler and its argument — all a pooled
// event's firing reads — are the struct's first 64 bytes, so an event
// whose slab slot starts a cache line is fired from that one line.
func TestEventHotFieldsLeadTheStruct(t *testing.T) {
	var e Event
	if end := unsafe.Offsetof(e.arg) + unsafe.Sizeof(e.arg); unsafe.Offsetof(e.ent) != 0 || end != 64 {
		t.Fatalf("ent at %d, arg ends at %d: want ent, argFn, arg in bytes [0, 64)", unsafe.Offsetof(e.ent), end)
	}
	if size := unsafe.Sizeof(e); size != 112 {
		t.Fatalf("des.Event is %d bytes, DESIGN §7's per-host inventory says 112", size)
	}
}
