package des

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/race"
)

// TestKeyFor pins the tie-break key layout: bit 63 set (keyed events
// sort after every FIFO-numbered event at the same instant), then the
// emitter, then its per-emitter ordinal — so keys order first by
// emitter, then by emission order, as both engines require.
func TestKeyFor(t *testing.T) {
	if k := KeyFor(0, 0); k != 1<<63 {
		t.Fatalf("KeyFor(0,0) = %#x, want bit 63 only", k)
	}
	ks := []uint64{KeyFor(0, 0), KeyFor(0, 1), KeyFor(1, 0), KeyFor(1, 1), KeyFor(2, 0)}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("keys not strictly increasing: %#x then %#x", ks[i-1], ks[i])
		}
	}
	// FIFO sequence numbers stay below 1<<63 for any realistic run, so
	// the global-first rule is a plain integer comparison.
	if seq := uint64(1) << 62; seq >= KeyFor(0, 0) {
		t.Fatal("FIFO range overlaps keyed range")
	}
}

// TestScheduleArgKeyedOrdering schedules simultaneous events in an
// adversarial insertion order and requires the (key) order to win:
// FIFO-numbered events first (the global timeline), then keyed events
// by (emitter, ordinal) — never by insertion order.
func TestScheduleArgKeyedOrdering(t *testing.T) {
	s := New()
	var got []string
	rec := func(name string) ArgHandler {
		return func(_ *Simulator, _ Time, _ any) { got = append(got, name) }
	}
	// Inserted deliberately out of key order, all at t=1.
	s.ScheduleArgKeyed(1, KeyFor(2, 0), "e2.0", rec("e2.0"), nil)
	s.ScheduleArgKeyed(1, KeyFor(1, 1), "e1.1", rec("e1.1"), nil)
	s.ScheduleArg(1, "fifo-b", rec("fifo-b"), nil)
	s.ScheduleArgKeyed(1, KeyFor(1, 0), "e1.0", rec("e1.0"), nil)
	s.ScheduleArg(1, "fifo-a", rec("fifo-a"), nil)
	s.Run(2)
	want := []string{"fifo-b", "fifo-a", "e1.0", "e1.1", "e2.0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestSoloKeys drives the sequential Sched adapter and checks it stamps
// exactly the keys a parallel lane would: per-emitter ordinals advance
// independently, Route charges the *emitter's* ordinal, and emitters
// first seen mid-run (dynamic joins) grow the table transparently.
func TestSoloKeys(t *testing.T) {
	s := New()
	w := Solo(s).(*solo)
	nop := func(_ *Simulator, _ Time, _ any) {}
	w.ScheduleArg(3, 1, "a", nop, nil) // emitter 3, ordinal 0
	w.ScheduleArg(3, 1, "b", nop, nil) // emitter 3, ordinal 1
	w.ScheduleArg(0, 1, "c", nop, nil) // emitter 0, ordinal 0
	w.Route(3, 0, 1.5, "d", nop, nil)  // emitted by 3: its ordinal 2
	if got, want := w.ord[3], uint32(3); got != want {
		t.Fatalf("emitter 3 ordinal = %d, want %d", got, want)
	}
	if got, want := w.ord[0], uint32(1); got != want {
		t.Fatalf("emitter 0 ordinal = %d, want %d", got, want)
	}
	w.ScheduleArgAfter(7, 2, "late", nop, nil) // first sight of emitter 7
	if len(w.ord) != 8 || w.ord[7] != 1 {
		t.Fatalf("ordinal table after join = %v", w.ord)
	}
	if n := s.Run(10); n != 5 {
		t.Fatalf("fired %d events, want 5", n)
	}

	// What the table's growth policy must never leak into tie-breaking:
	// emitters first seen out of order and with gaps are stamped
	// KeyFor(emitter, k) on their k-th emission, whatever capacity the
	// table had when they appeared, and emitters the growth merely stepped
	// over still stand at ordinal 0.
	t.Run("sparse emitters", func(t *testing.T) {
		s := New()
		w := Solo(s).(*solo)
		emitters := []int{0, 7, 3, 100000, 4, 7, 100000, 0, 99999, 100000}
		want := make([]uint64, len(emitters))
		seen := map[int]uint32{}
		for j, e := range emitters {
			want[j] = KeyFor(e, seen[e])
			seen[e]++
			// Emission j fires at time j+1, so popping replays emission order.
			w.ScheduleArg(e, Time(j+1), "e", nop, nil)
		}
		for j, e := range emitters {
			if got := s.queue.Pop().Seq; got != want[j] {
				t.Fatalf("emission %d (emitter %d): key %#x, want %#x", j, e, got, want[j])
			}
		}
		if len(w.ord) != 100001 {
			t.Fatalf("ordinal table has %d entries, want 100001", len(w.ord))
		}
		for e, ord := range w.ord {
			if ord != seen[e] {
				t.Fatalf("emitter %d stands at ordinal %d, want %d", e, ord, seen[e])
			}
		}
	})
}

// TestSoloMatchesLaneOrder runs the same simultaneous-event population
// through Solo twice with different call orders per emitter pair and
// checks the firing order depends only on (emitter, ordinal) — the
// bit-identity property the parallel engines rely on.
func TestSoloMatchesLaneOrder(t *testing.T) {
	run := func(swap bool) []string {
		s := New()
		w := Solo(s)
		var got []string
		rec := func(name string) ArgHandler {
			return func(_ *Simulator, _ Time, _ any) { got = append(got, name) }
		}
		if swap {
			w.ScheduleArg(100000, 1, "d", rec("100000.0"), nil)
			w.ScheduleArg(2, 1, "b", rec("2.0"), nil)
			w.ScheduleArg(1, 1, "a", rec("1.0"), nil)
			w.ScheduleArg(7, 1, "c", rec("7.0"), nil)
		} else {
			w.ScheduleArg(1, 1, "a", rec("1.0"), nil)
			w.ScheduleArg(2, 1, "b", rec("2.0"), nil)
			w.ScheduleArg(7, 1, "c", rec("7.0"), nil)
			w.ScheduleArg(100000, 1, "d", rec("100000.0"), nil)
		}
		s.Run(2)
		return got
	}
	a, b := run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("firing order depends on insertion order: %v vs %v", a, b)
	}
	// The order is the emitters', not the order the table grew in: the
	// swapped run sees emitter 100000 first, sizing the table in one step.
	if want := []string{"1.0", "2.0", "7.0", "100000.0"}; !reflect.DeepEqual(a, want) {
		t.Fatalf("firing order %v, want %v", a, want)
	}
}

// TestSoloFirstScheduleAllocsLinear is the gate on the ordinal table's
// growth: world set-up first-schedules every host in id order, so the
// bytes that takes at 2n emitters must stay near twice those at n. A
// table regrown to exact fit per new emitter copies n²/2 ordinals and
// shows as 4x.
func TestSoloFirstScheduleAllocsLinear(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	nop := func(_ *Simulator, _ Time, _ any) {}
	firstSchedule := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := Solo(NewWith(QueueCalendar))
		for i := 0; i < n; i++ {
			w.ScheduleArgAfter(i, Time(i%97)+1, "first", nop, nil)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const n = 20000
	small, large := firstSchedule(n), firstSchedule(2*n)
	t.Logf("first schedule: %.0f B at n=%d, %.0f B at n=%d, ratio %.2f", small, n, large, 2*n, large/small)
	if r := large / small; r >= 2.5 {
		t.Fatalf("first-schedule bytes grew %.2fx for 2x the emitters (limit 2.5): the ordinal table regrows quadratically", r)
	}
}

// TestSoloInline pins Sched.Inline's contract on the sequential surface:
// a step is refused outside Run (set-up, Step, after Run returns) and at
// or past the horizon — an operation at exactly the horizon stays an
// event — and an allowed step is counted in Fired, in Run's return, in
// des_events_fired_total, in des_events_by_label_total under its label
// and in the queue probe's Inline, without touching the queue.
func TestSoloInline(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	var qp probe.QueueProbe
	s.EnableProbe(nil, &qp)
	w := Solo(s)
	if w.Inline(0, 1, "op") {
		t.Fatal("a step was allowed before Run")
	}
	var got []bool
	s.ScheduleArg(2, "ask", func(*Simulator, Time, any) {
		for _, at := range []Time{2, 9.5, 10, 11, Time(math.NaN())} {
			got = append(got, w.Inline(3, at, "op"))
		}
	}, nil)
	if n := s.Run(10); n != 3 || s.Fired() != 3 {
		t.Fatalf("Run returned %d, Fired = %d: want the event and its two steps", n, s.Fired())
	}
	if want := []bool{true, true, false, false, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("steps at 2, 9.5, the horizon 10, 11 and NaN: allowed %v, want %v", got, want)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Get("des_events_by_label_total", "label", "op"); v != 2 {
		t.Fatalf("op steps counted = %d, want 2", v)
	}
	if v, _ := snap.Get("des_events_fired_total"); v != 3 {
		t.Fatalf("events fired = %d, want 3", v)
	}
	if qp.Inline != 2 || qp.Pushes != 1 || qp.Pops != 1 || s.Now() != 10 {
		t.Fatalf("probe %+v, clock %v: want 2 steps in line, 1 push, 1 pop, clock at the horizon", qp, s.Now())
	}
	if w.Inline(0, 10.5, "op") {
		t.Fatal("a step was allowed after Run returned")
	}
	stepped := false
	s.ScheduleArg(12, "step", func(*Simulator, Time, any) { stepped = w.Inline(0, 12.5, "op") }, nil)
	if !s.Step() || stepped {
		t.Fatal("a step was allowed inside Step, outside Run")
	}
}

// TestNextTimeStep checks the peek/step surface the parallel kernel
// interleaves the global timeline with: NextTime never fires, Step
// fires exactly one event regardless of horizon, and both report
// emptiness.
func TestNextTimeStep(t *testing.T) {
	s := New()
	if _, ok := s.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	if s.Step() {
		t.Fatal("Step on empty queue fired")
	}
	fired := 0
	s.ScheduleArg(5, "x", func(_ *Simulator, now Time, _ any) { fired++ }, nil)
	s.ScheduleArg(9, "y", func(_ *Simulator, now Time, _ any) { fired++ }, nil)
	if at, ok := s.NextTime(); !ok || at != 5 {
		t.Fatalf("NextTime = %v,%v, want 5,true", at, ok)
	}
	if fired != 0 {
		t.Fatal("NextTime fired an event")
	}
	if !s.Step() || fired != 1 || s.Now() != 5 {
		t.Fatalf("Step: fired=%d now=%v", fired, s.Now())
	}
	if at, ok := s.NextTime(); !ok || at != 9 {
		t.Fatalf("NextTime after step = %v,%v, want 9,true", at, ok)
	}
	if !s.Step() || s.Step() {
		t.Fatal("second Step should fire, third should not")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}
