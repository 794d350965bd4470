package pdes

import (
	"math"
	"strings"
	"testing"

	"mobickpt/internal/des"
)

// splitmix is the toy world's per-owner rng step (SplitMix64).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// toyWorld is a closure-based model in the image of the mobile-host
// world: per-owner private state driven by self-scheduled ticks,
// cross-owner messages with a minimum delay (the lookahead), rare
// shared-state writes that need exclusion, and a serial global timeline
// that mutates shared state and schedules new owner events (like
// dynamic joins). Every tick folds the shared value into the owner's
// accumulator, so a write that escapes serialization shows up both as a
// data race and as a result divergence.
type toyWorld struct {
	n      int
	look   des.Time
	owners []toyOwner
	shared int64
	sched  func(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool)
}

type toyOwner struct {
	rng   uint64
	count int64
	sum   float64
	seen  int64
	_     [24]byte
}

const toyHorizon = 28.0

func newToyWorld(n int, look des.Time) *toyWorld {
	w := &toyWorld{n: n, look: look, owners: make([]toyOwner, n)}
	for o := range w.owners {
		w.owners[o].rng = splitmix(uint64(o) * 2654435761)
	}
	return w
}

// seed schedules every owner's first tick (the single-threaded init
// phase, mirroring the engine's pre-Run setup).
func (w *toyWorld) seed() {
	for o := 0; o < w.n; o++ {
		at := des.Time(0.01 + float64(o)/613.0)
		w.sched(o, o, at, w.tick, o, false)
	}
}

func (w *toyWorld) tick(_ *des.Simulator, now des.Time, arg any) {
	o := arg.(int)
	st := &w.owners[o]
	st.rng = splitmix(st.rng)
	st.count++
	st.sum += float64(now)
	st.seen += w.shared
	delay := des.Time(0.11 + float64(st.rng&1023)/4096.0)
	switch st.rng >> 60 {
	case 0:
		// Cross-owner message: the only cross-lane schedule, always at
		// least one lookahead away (the world's wireless uplink bound).
		dst := (o + 7) % w.n
		w.sched(o, dst, now+w.look+delay, w.tick, dst, false)
		w.sched(o, o, now+delay, w.tick, o, false)
	case 1:
		// Shared-state write (a hand-off in the real world): runs only
		// under full exclusion.
		w.sched(o, o, now+delay, w.write, o, true)
	default:
		w.sched(o, o, now+delay, w.tick, o, false)
	}
}

func (w *toyWorld) write(_ *des.Simulator, now des.Time, arg any) {
	o := arg.(int)
	st := &w.owners[o]
	st.rng = splitmix(st.rng)
	st.count++
	w.shared += int64(o) + 1
	st.seen += w.shared
	delay := des.Time(0.11 + float64(st.rng&1023)/4096.0)
	w.sched(o, o, now+delay, w.tick, o, false)
}

// globalMark is the serial global timeline: mutate shared state and
// inject a fresh owner event, like the engine's markers and joins.
func (w *toyWorld) globalMark(sim *des.Simulator, now des.Time, _ any) {
	w.shared++
	o := int(w.shared) % w.n
	w.sched(o, o, now+0.055, w.tick, o, false)
	if next := now + 1.37; float64(next) <= toyHorizon {
		sim.ScheduleArg(next, "mark", w.globalMark, nil)
	}
}

func (w *toyWorld) fingerprint() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for o := range w.owners {
		st := &w.owners[o]
		mix(st.rng)
		mix(uint64(st.count))
		mix(math.Float64bits(st.sum))
		mix(uint64(st.seen))
	}
	mix(uint64(w.shared))
	return h
}

// runToySequential is the reference: everything on one des.Simulator.
func runToySequential(t *testing.T, n int, look des.Time) (*toyWorld, uint64) {
	t.Helper()
	w := newToyWorld(n, look)
	sim := des.NewWith(des.QueueHeap)
	sch := des.Solo(sim)
	w.sched = func(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, _ bool) {
		if emitter == owner {
			sch.ScheduleArg(owner, at, "toy", fn, arg)
		} else {
			sch.Route(emitter, owner, at, "toy", fn, arg)
		}
	}
	sim.ScheduleArg(1.37, "mark", w.globalMark, nil)
	w.seed()
	sim.Run(toyHorizon)
	return w, sim.Fired()
}

// runToyCore runs the toy world on lanes lanes and returns it, the
// events fired, the core's stats and how often the core called Parked.
func runToyCore(t *testing.T, n int, look des.Time, lanes int) (*toyWorld, uint64, *Stats, uint64) {
	t.Helper()
	w := newToyWorld(n, look)
	gsim := des.NewWith(des.QueueHeap)
	var parked uint64
	var c *Core
	c, err := NewCore(CoreConfig{
		Lanes:     lanes,
		Horizon:   toyHorizon,
		Lookahead: look,
		GlobalNext: func() (des.Time, bool) {
			return gsim.NextTime()
		},
		GlobalStep: func() { gsim.Step() },
		Parked:     func() { parked++ },
	})
	if err != nil {
		t.Fatalf("NewCore: %v", err)
	}
	w.sched = func(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool) {
		c.Schedule(emitter, owner, at, fn, arg, write)
	}
	gsim.ScheduleArg(1.37, "mark", w.globalMark, nil)
	w.seed()
	c.Run()
	// Advance the global clock over any tail with no global events, as
	// the engine does after a parallel run.
	gsim.Run(toyHorizon)
	return w, c.Fired() + gsim.Fired(), c.Stats(), parked
}

// TestCoreEquivalence checks that the parallel driver reproduces the
// sequential toy world bit-identically — same per-owner rng streams,
// float accumulators, shared-state interleavings and event totals — at
// several lane counts, against the heap-backed sequential oracle.
func TestCoreEquivalence(t *testing.T) {
	const n = 32
	const look = des.Time(0.05)
	ref, refFired := runToySequential(t, n, look)
	want := ref.fingerprint()
	for _, lanes := range []int{1, 2, 3, 4} {
		w, fired, st, parked := runToyCore(t, n, look, lanes)
		if got := w.fingerprint(); got != want {
			t.Errorf("lanes=%d: fingerprint %x, want %x", lanes, got, want)
		}
		if fired != refFired {
			t.Errorf("lanes=%d: fired %d, want %d", lanes, fired, refFired)
		}
		if st.GlobalEvents.Load() == 0 {
			t.Errorf("lanes=%d: no global events interleaved", lanes)
		}
		if lanes > 1 && st.Windows.Load() == 0 {
			t.Errorf("lanes=%d: no windows ran", lanes)
		}
		if st.SerialSteps.Load() == 0 {
			t.Errorf("lanes=%d: no serialized write steps", lanes)
		}
		if want := st.Windows.Load() + st.SerialSteps.Load(); parked != want {
			t.Errorf("lanes=%d: Parked called %d times, want one per window and write step (%d)", lanes, parked, want)
		}
	}
}

// TestCoreInline pins des.Sched.Inline's contract on the lane surface:
// a step is refused before Run, in the world-stopped global phase, after
// Run, and at or past the horizon; an allowed step counts on the
// executing owner's lane only — in Fired and in that lane's queue probe —
// which -race checks by running it with lanes in parallel.
func TestCoreInline(t *testing.T) {
	const owners, lanes, horizon = 9, 3, 10.0
	gsim := des.New()
	pr := &CoreProbe{}
	c, err := NewCore(CoreConfig{
		Lanes: lanes, Horizon: horizon, Lookahead: 0.5, Probe: pr,
		GlobalNext: gsim.NextTime, GlobalStep: func() { gsim.Step() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Inline(0, 1) {
		t.Fatal("a step was allowed before Run")
	}
	allowed := make([]uint64, owners) // each written by its owner's lane only
	events := make([]uint64, owners)
	pastHorizon := make([]bool, owners)
	var tick des.ArgHandler
	tick = func(_ *des.Simulator, now des.Time, arg any) {
		o := arg.(int)
		events[o]++
		if c.Inline(o, now+0.25) {
			allowed[o]++
		}
		if c.Inline(o, horizon) || c.Inline(o, horizon+1) {
			pastHorizon[o] = true
		}
		c.Schedule(o, o, now+1, tick, o, false)
	}
	for o := 0; o < owners; o++ {
		c.Schedule(o, o, des.Time(0.1*float64(o)), tick, o, false)
	}
	globalAllowed := false
	gsim.ScheduleArg(4.05, "global", func(*des.Simulator, des.Time, any) { globalAllowed = c.Inline(0, 4.5) }, nil)
	c.Run()
	if globalAllowed {
		t.Fatal("a step was allowed in the global phase")
	}
	if c.Inline(0, 1) {
		t.Fatal("a step was allowed after Run")
	}
	var total uint64
	perLane := make([]uint64, lanes)
	for o := 0; o < owners; o++ {
		if pastHorizon[o] {
			t.Fatalf("owner %d was allowed a step at or past the horizon", o)
		}
		var wantEvents, wantAllowed uint64
		for at := 0.1 * float64(o); at <= horizon; at++ {
			wantEvents++
			if at+0.25 < horizon {
				wantAllowed++
			}
		}
		if events[o] != wantEvents || allowed[o] != wantAllowed {
			t.Fatalf("owner %d: %d steps allowed over %d events, want %d over %d",
				o, allowed[o], events[o], wantAllowed, wantEvents)
		}
		total += events[o] + allowed[o]
		perLane[o%lanes] += allowed[o]
	}
	if c.Fired() != total {
		t.Fatalf("Fired = %d, want %d events and steps", c.Fired(), total)
	}
	for l := range perLane {
		if q := pr.Queues[l]; q.Inline != perLane[l] || q.Pops+q.Inline != pr.Lanes[l].Events+perLane[l] {
			t.Fatalf("lane %d probe %+v: want %d steps in line", l, q, perLane[l])
		}
	}
}

// TestCoreConfigErrors exercises the constructor's validation.
func TestCoreConfigErrors(t *testing.T) {
	base := CoreConfig{Lanes: 2, Horizon: 1, Lookahead: 0.1}
	bad := []func(*CoreConfig){
		func(c *CoreConfig) { c.Lanes = 0 },
		func(c *CoreConfig) { c.Lookahead = 0 },
		func(c *CoreConfig) { c.GlobalNext = func() (des.Time, bool) { return 0, false } },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewCore(cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

// TestParseMode covers the flag spellings: the bounded-lag driver's
// `timewarp` and `optimistic` are gone, and the error names what is left.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", ModeSequential, false},
		{"sequential", ModeSequential, false},
		{"seq", ModeSequential, false},
		{"conservative", ModeConservative, false},
		{"timewarp", ModeSequential, true},
		{"optimistic", ModeSequential, true},
		{"bogus", ModeSequential, true},
	} {
		got, err := ParseMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if err != nil && !(strings.Contains(err.Error(), "sequential") && strings.Contains(err.Error(), "conservative")) {
			t.Errorf("ParseMode(%q): error %q does not name the engines", tc.in, err)
		}
		if !tc.err && got.String() == "" {
			t.Errorf("Mode(%d).String() empty", got)
		}
	}
}
