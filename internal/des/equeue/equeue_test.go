package equeue

import (
	"math"
	"testing"

	"mobickpt/internal/obs/probe"
	"mobickpt/internal/race"
	"mobickpt/internal/rng"
)

// pair is one logical scheduled item mirrored into both queues: h sits
// in the heap, c in the calendar, always with identical (At, Seq).
type pair struct {
	id   int
	h, c Entry
}

// lockstep drives a heap and a calendar with one operation sequence and
// demands they agree on every observable — lengths, pop and peek
// identity, pop order, handle staleness. With deep set it also validates
// the calendar's whole structure after every operation. This is the
// observational-equivalence gate the calendar queue must pass before a
// simulation may select it.
type lockstep struct {
	t      *testing.T
	h      *Heap
	c      *Calendar
	live   []*pair
	popped []*pair
	seq    uint64
	nextID int
	ops    int
	now    float64 // time of the last pop
	deep   bool
}

func newLockstep(t *testing.T, deep bool) *lockstep {
	return &lockstep{t: t, h: NewHeap(), c: NewCalendar(), deep: deep}
}

// step closes one operation: the lengths must agree and, when asked, the
// calendar's structure must hold.
func (l *lockstep) step() {
	l.t.Helper()
	l.ops++
	if l.h.Len() != l.c.Len() || l.h.Len() != len(l.live) {
		l.t.Fatalf("op %d: lengths diverged: heap=%d calendar=%d live=%d", l.ops, l.h.Len(), l.c.Len(), len(l.live))
	}
	if l.deep {
		validate(l.t, l.c, l.live, l.ops)
	}
}

func (l *lockstep) push(at float64) *pair {
	l.t.Helper()
	p := &pair{id: l.nextID}
	l.nextID++
	l.live = append(l.live, p)
	l.stamp(p, at)
	return p
}

// stamp gives p a time and a fresh Seq and pushes it into both queues.
func (l *lockstep) stamp(p *pair, at float64) {
	l.t.Helper()
	p.h = Entry{At: at, Seq: l.seq, E: p}
	p.c = Entry{At: at, Seq: l.seq, E: p}
	l.seq++
	l.h.Push(&p.h)
	l.c.Push(&p.c)
	l.step()
}

func (l *lockstep) dropLive(p *pair) {
	l.t.Helper()
	for i, q := range l.live {
		if q == p {
			l.live[i] = l.live[len(l.live)-1]
			l.live = l.live[:len(l.live)-1]
			return
		}
	}
	l.t.Fatalf("op %d: item %d not live", l.ops, p.id)
}

// pop pops both queues and returns the item, or nil when both are empty.
func (l *lockstep) pop() *pair {
	l.t.Helper()
	eh, ec := l.h.Pop(), l.c.Pop()
	if (eh == nil) != (ec == nil) {
		l.t.Fatalf("op %d: pop disagreement: heap=%v calendar=%v", l.ops, eh, ec)
	}
	if eh == nil {
		l.step()
		return nil
	}
	ph, pc := eh.E.(*pair), ec.E.(*pair)
	if ph != pc {
		l.t.Fatalf("op %d: pop order diverged: heap item %d (at=%v seq=%d), calendar item %d (at=%v seq=%d)",
			l.ops, ph.id, eh.At, eh.Seq, pc.id, ec.At, ec.Seq)
	}
	if eh.Queued() || ec.Queued() {
		l.t.Fatalf("op %d: popped entry still reports queued", l.ops)
	}
	l.now = eh.At
	l.dropLive(ph)
	l.popped = append(l.popped, ph)
	l.step()
	return ph
}

func (l *lockstep) peek() *pair {
	l.t.Helper()
	eh, ec := l.h.Peek(), l.c.Peek()
	if (eh == nil) != (ec == nil) {
		l.t.Fatalf("op %d: peek disagreement: heap=%v calendar=%v", l.ops, eh, ec)
	}
	l.step()
	if eh == nil {
		return nil
	}
	if eh.E.(*pair) != ec.E.(*pair) {
		l.t.Fatalf("op %d: peek diverged: heap item %d, calendar item %d", l.ops, eh.E.(*pair).id, ec.E.(*pair).id)
	}
	return eh.E.(*pair)
}

func (l *lockstep) remove(p *pair) {
	l.t.Helper()
	okh, okc := l.h.Remove(&p.h), l.c.Remove(&p.c)
	if !okh || !okc {
		l.t.Fatalf("op %d: remove of live item %d (at=%v): heap=%v calendar=%v", l.ops, p.id, p.c.At, okh, okc)
	}
	if p.h.Queued() || p.c.Queued() {
		l.t.Fatalf("op %d: removed entry still reports queued", l.ops)
	}
	l.dropLive(p)
	l.step()
}

func (l *lockstep) staleRemove(p *pair) {
	l.t.Helper()
	if l.h.Remove(&p.h) || l.c.Remove(&p.c) {
		l.t.Fatalf("op %d: stale remove of item %d succeeded", l.ops, p.id)
	}
	l.step()
}

// move is the engine's Reschedule of a queued event: remove, restamp,
// push.
func (l *lockstep) move(p *pair, at float64) {
	l.t.Helper()
	l.remove(p)
	l.live = append(l.live, p)
	l.stamp(p, at)
}

func (l *lockstep) drain() {
	l.t.Helper()
	for l.pop() != nil {
	}
	if len(l.live) != 0 {
		l.t.Fatalf("%d items unaccounted for after drain", len(l.live))
	}
}

// lockstepCase parameterizes the randomized churn: how far apart event
// times land, whether exact virtual-time ties occur in bursts (Seq must
// break them FIFO), and whether far-future outliers or a long tail of
// timers sit among the dense operations.
type lockstepCase struct {
	name   string
	spread float64
	burst  bool
	far    bool
	tail   bool // quarter of pushes land ~1000x further out (timer-vs-op skew)
	ops    int
}

func TestHeapCalendarLockstep(t *testing.T) {
	cases := []lockstepCase{
		{name: "dense", spread: 1, ops: 12000},
		{name: "bursty-ties", spread: 0.5, burst: true, ops: 12000},
		{name: "sparse-far-future", spread: 200, far: true, ops: 6000},
		{name: "tiny-span", spread: 1e-7, burst: true, ops: 6000},
		{name: "skewed-tail", spread: 1, tail: true, ops: 12000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runLockstep(t, tc, seed, false)
			}
		})
	}
}

// TestCalendarStructuralInvariants replays the two harshest lockstep
// cases — far-future outliers over a drifting near cluster, and a long
// timer tail among dense operations — validating the calendar's whole
// structure after every operation. A broken invariant caught here is
// localized thousands of operations before it would surface as a wrong
// pop order.
func TestCalendarStructuralInvariants(t *testing.T) {
	runLockstep(t, lockstepCase{spread: 200, far: true, ops: 6000}, 3, true)
	runLockstep(t, lockstepCase{spread: 1, tail: true, burst: true, ops: 6000}, 4, true)
}

func runLockstep(t *testing.T, tc lockstepCase, seed uint64, deep bool) {
	t.Helper()
	src := rng.New(seed)
	l := newLockstep(t, deep)
	newAt := func() float64 {
		at := l.now + src.Float64()*tc.spread
		if tc.burst && src.Intn(4) == 0 {
			at = l.now // exact tie: Seq must order it after everything queued at now
		}
		if tc.far && src.Intn(16) == 0 {
			at = l.now + 1e9 + src.Float64() // a year of its own, aeons away
		}
		if tc.tail && src.Intn(4) == 0 {
			at = l.now + src.Float64()*1000*tc.spread // long timers among dense ops
		}
		return at
	}
	for i := 0; i < tc.ops; i++ {
		// Push-heavy while growing, pop-heavy while draining: the bucket
		// count follows the population in both directions.
		growing := i < tc.ops/2
		switch r := src.Intn(11); {
		case r < 4 && growing, r < 2 && !growing:
			l.push(newAt())
		case r < 7:
			l.pop()
		case r == 7 && len(l.live) > 0:
			l.remove(l.live[src.Intn(len(l.live))])
		case r == 8 && len(l.live) > 0:
			l.move(l.live[src.Intn(len(l.live))], newAt())
		case r == 9 && len(l.popped) > 0:
			l.staleRemove(l.popped[src.Intn(len(l.popped))])
		case r == 10:
			l.peek()
		}
	}
	l.drain()
}

// TestCalendarRemoveBeforeFirstPop: entries pushed into a queue that has
// no year yet sit in the overflow, and Remove must find them there — and
// after the first Pop has dealt them, in whichever bucket they went to.
func TestCalendarRemoveBeforeFirstPop(t *testing.T) {
	l := newLockstep(t, true)
	src := rng.New(7)
	var ps []*pair
	for i := 0; i < 300; i++ {
		ps = append(ps, l.push(src.Float64()*50))
	}
	for i := 0; i < len(ps); i += 3 { // before any Pop or Peek
		l.remove(ps[i])
	}
	l.pop()
	for i := 1; i < len(ps); i += 3 { // after the deal; one of them is the popped one
		if ps[i].c.Queued() {
			l.remove(ps[i])
		} else {
			l.staleRemove(ps[i])
		}
	}
	l.drain()
}

// TestCalendarYearRollover pops a population through several years: every
// rollover finds the near list and all buckets empty and the whole
// population in the overflow, re-derives the geometry and deals. Pushes
// keep arriving meanwhile, some beyond the year, so overflow chunks are
// recycled into buckets and back.
func TestCalendarYearRollover(t *testing.T) {
	l := newLockstep(t, true)
	var pr probe.QueueProbe
	l.c.SetProbe(&pr)
	src := rng.New(11)
	for i := 0; i < 400; i++ {
		at := src.Exp(1)
		if i%2 == 1 {
			at = src.Exp(100) // the timers: most of them beyond any one year
		}
		l.push(at)
	}
	for i := 0; i < 3000; i++ {
		p := l.pop()
		mean := 1.0
		if p.id%2 == 1 {
			mean = 100
		}
		l.push(l.now + src.Exp(mean))
	}
	if pr.DirectScans < 5 {
		t.Fatalf("%d year starts over 3000 holds of a 400-entry population, want several", pr.DirectScans)
	}
	if pr.Resizes != 1 {
		t.Errorf("%d bucket-array reallocations for a steady population, want the first one only", pr.Resizes)
	}
	l.drain()
}

// TestCalendarPushBelowPeek: Peek moves the sweep to the bucket holding
// the minimum; an entry pushed afterwards with an earlier time — in a
// bucket the sweep already passed — must still come out first.
func TestCalendarPushBelowPeek(t *testing.T) {
	l := newLockstep(t, true)
	for i := 0; i < 64; i++ {
		l.push(10 + float64(i))
	}
	if p := l.peek(); p.c.At != 10 {
		t.Fatalf("peeked %v, want 10", p.c.At)
	}
	l.pop()
	l.pop() // now = 11
	for i := 0; i < 20; i++ {
		l.push(40 + float64(i)/32) // widen the gap the next Peek sweeps over
	}
	if p := l.peek(); p.c.At != 12 {
		t.Fatalf("peeked %v, want 12", p.c.At)
	}
	early := l.push(11.5)
	if p := l.peek(); p != early {
		t.Fatalf("peeked item at %v, want the one just pushed at 11.5", p.c.At)
	}
	l.push(11.25)
	l.push(11.5) // ties with early, after it by Seq
	l.drain()
}

// TestCalendarOneInstant: 1e5 entries at one instant pop FIFO by Seq, and
// a hold at that instant — pop one, push one — stays O(1): the pushed
// entry goes to the near list's tail without moving a record.
func TestCalendarOneInstant(t *testing.T) {
	const n = 100_000
	c := NewCalendar()
	var pr probe.QueueProbe
	c.SetProbe(&pr)
	entries := make([]Entry, 2*n)
	for i := 0; i < n; i++ {
		entries[i] = Entry{At: 42, Seq: uint64(i)}
		c.Push(&entries[i])
	}
	for i := 0; i < n; i++ {
		e := c.Pop()
		if e != &entries[i] {
			t.Fatalf("pop %d returned seq %d", i, e.Seq)
		}
		entries[n+i] = Entry{At: 42, Seq: uint64(n + i)}
		c.Push(&entries[n+i])
	}
	for i := n; i < 2*n; i++ {
		if e := c.Pop(); e != &entries[i] {
			t.Fatalf("pop %d returned seq %d", i, e.Seq)
		}
	}
	if c.Pop() != nil {
		t.Fatal("extra entry after drain")
	}
	if pr.ChainSteps != 0 || pr.DirectScans != 1 {
		t.Fatalf("%d records shifted and %d year starts for %d holds at one instant, want 0 and 1", pr.ChainSteps, pr.DirectScans, n)
	}
}

// TestCalendarExtremeTimes: times whose ratio to the bucket width
// overflows any integer slot number — a tight cluster beside 1e300, the
// largest float and +Inf — file into the overflow and come out in order;
// so do denormals beside ordinary times, and negative times.
func TestCalendarExtremeTimes(t *testing.T) {
	l := newLockstep(t, true)
	times := []float64{
		1e-9, 2e-9, 3e-9, 1.5e-9, 1e-9,
		1e300, math.MaxFloat64, math.Inf(1), math.Inf(1), 1e300,
		5e-324, 0, 1, 1 << 60, 1 << 62, float64(1<<62) * 4,
		-1, -1e300, math.Inf(-1), -5e-324,
	}
	for round := 0; round < 3; round++ {
		for _, at := range times {
			l.push(at)
		}
		for i := 0; i < len(times)/2; i++ {
			l.pop()
		}
	}
	l.drain()
	// All at +Inf: a year that starts at +Inf must not compute Inf−Inf.
	for i := 0; i < 20; i++ {
		l.push(math.Inf(1))
	}
	l.drain()
}

// TestCalendarSparsePopulation: a population spread so thin that a year
// sized for its head reaches a small part of it still pops in exact
// order, in a bounded number of years and bucket examinations.
func TestCalendarSparsePopulation(t *testing.T) {
	c := NewCalendar()
	var pr probe.QueueProbe
	c.SetProbe(&pr)
	src := rng.New(9)
	const n = 64
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{At: float64(src.Intn(1 << 40)), Seq: uint64(i)}
		c.Push(&entries[i])
	}
	last := -1.0
	for i := 0; i < n; i++ {
		e := c.Pop()
		if e == nil {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if e.At < last {
			t.Fatalf("pop %d went backwards: %v after %v", i, e.At, last)
		}
		last = e.At
	}
	if c.Pop() != nil {
		t.Fatal("extra entry after drain")
	}
	if pr.DirectScans > n/4 || pr.SweepSteps > 4*n {
		t.Fatalf("%d year starts, %d buckets examined for %d pops", pr.DirectScans, pr.SweepSteps, n)
	}
}

// TestCalendarRefillAfterDrain: a drained queue forgets its year. Refilled
// under the old geometry — here one bucket a billion wide — every entry
// would map at or below the sweep and pay the near list's ordered insert.
func TestCalendarRefillAfterDrain(t *testing.T) {
	c := NewCalendar()
	var pr probe.QueueProbe
	c.SetProbe(&pr)
	a, b := Entry{At: 0, Seq: 0}, Entry{At: 1e9, Seq: 1}
	c.Push(&a)
	c.Push(&b)
	c.Pop()
	c.Pop()
	const n = 20_000
	src := rng.New(3)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{At: 1e9 + src.Float64(), Seq: uint64(i + 2)}
		c.Push(&entries[i])
	}
	last := 0.0
	for i := 0; i < n; i++ {
		e := c.Pop()
		if e.At < last {
			t.Fatalf("pop %d went backwards: %v after %v", i, e.At, last)
		}
		last = e.At
	}
	if pr.ChainSteps > n {
		t.Fatalf("%d records shifted refilling %d entries after a drain: the old year's geometry survived it", pr.ChainSteps, n)
	}
}

// TestCalendarTieBreaksFIFO pins the Seq tiebreaker: many entries at one
// instant, pushed into an established year, pop in push order.
func TestCalendarTieBreaksFIFO(t *testing.T) {
	c := NewCalendar()
	const n = 100
	entries := make([]Entry, 2*n)
	for i := 0; i < n; i++ {
		entries[i] = Entry{At: float64(i), Seq: uint64(i)}
		c.Push(&entries[i])
	}
	c.Pop() // a year now exists; 42 lies inside it
	for i := n; i < 2*n; i++ {
		entries[i] = Entry{At: 42, Seq: uint64(i)}
		c.Push(&entries[i])
	}
	for c.Peek().At < 42 {
		c.Pop()
	}
	if e := c.Pop(); e != &entries[42] {
		t.Fatalf("first entry at 42 has seq %d, want 42", e.Seq)
	}
	for i := n; i < 2*n; i++ {
		if e := c.Pop(); e != &entries[i] {
			t.Fatalf("pop returned seq %d, want %d", e.Seq, i)
		}
	}
}

// TestCalendarHoldZeroAlloc: once the arena has seen the population's
// peak, a hold — pop the minimum, push it back later — allocates nothing,
// whichever of the near list, a bucket or the overflow the push lands in.
// The bimodal increment (operations Exp(1) apart, timers Exp(100)) is the
// simulator's population: half of it always lies beyond the year.
func TestCalendarHoldZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	const depth, holds = 10_000, 100_000
	src := rng.New(5)
	c := NewCalendar()
	entries := make([]Entry, depth)
	for i := range entries {
		mean := 1.0
		if i%2 == 1 {
			mean = 100
		}
		entries[i] = Entry{At: src.Exp(mean), Seq: uint64(i), E: mean}
		c.Push(&entries[i])
	}
	seq := uint64(depth)
	hold := func() {
		for i := 0; i < holds; i++ {
			e := c.Pop()
			e.At += src.Exp(e.E.(float64))
			e.Seq = seq
			seq++
			c.Push(e)
		}
	}
	hold() // warm-up: years turn, the arena and the near list reach their peak
	if allocs := testing.AllocsPerRun(1, hold); allocs != 0 {
		t.Fatalf("%.0f allocations in %d holds at depth %d, want 0", allocs, holds, depth)
	}
}
