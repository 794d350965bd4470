package equeue

import (
	"slices"

	"mobickpt/internal/obs/probe"
)

// Calendar is Brown's calendar queue (R. Brown, "Calendar Queues: A
// Fast O(1) Priority Queue Implementation for the Simulation Event Set
// Problem", CACM 31(10), 1988): events hash into buckets of virtual-time
// width `width`, like days of a year, and dequeue sweeps the current
// day looking for an event due this year. Under the stationary event
// populations a DES produces, enqueue and dequeue are O(1) amortized.
//
// Determinism: all placement and due-ness checks go through the one
// integer slot function slotOf (floor(At/width)), never through an
// incrementally accumulated float, so an entry is due exactly when the
// sweep reaches its slot and the pop order is the same (At, Seq) total
// order the heap produces — bit-identical simulations on either queue.
//
// The sweep's correctness leans on one invariant: every queued entry's
// slot is >= cur (the sweep position). Pops maintain it because the
// popped entry is a global minimum; pushes below cur rewind cur.
type Calendar struct {
	buckets []calBucket
	mask    int64 // len(buckets)-1; bucket count is a power of two
	n       int
	width   float64
	cur     int64 // absolute slot (not masked) where the sweep stands

	probe *probe.QueueProbe // nil unless the observatory is attached
}

// SetProbe attaches (or, with nil, detaches) an internals probe. The
// probe shares the queue's single-writer discipline: only the owning
// goroutine may operate the queue, and readers must wait for the run to
// quiesce.
//
//probe:writer probe attach/detach happens on the owning goroutine
func (c *Calendar) SetProbe(p *probe.QueueProbe) {
	c.probe = p
	if p != nil {
		p.Kind = "calendar"
		p.Buckets = len(c.buckets)
		p.Width = c.width
	}
}

// calBucket is one day's entries, chained through Entry.next in
// (At, Seq) order. tail makes the common append-in-time-order case O(1).
type calBucket struct {
	head, tail *Entry
}

// calMinBuckets is the smallest bucket count; shrinking stops here.
const calMinBuckets = 8

// calWidthSample is how many head entries resize inspects to derive the
// bucket width (Brown samples the front of the queue so outliers far in
// the future cannot distort the day length).
const calWidthSample = 64

// calMaxSlot saturates day numbers: a width tuned to a tight cluster of
// near events would otherwise overflow int64 when a far-future event is
// pushed. Saturation is monotone, so ordering stays exact — far events
// just share the last day (and its bucket) until a resize re-derives a
// width that spreads them out.
const calMaxSlot = int64(1) << 60

// NewCalendar returns an empty calendar queue. The initial width is
// arbitrary (correctness never depends on it); the first resize derives
// a width from the actual event population.
func NewCalendar() *Calendar {
	return &Calendar{
		buckets: make([]calBucket, calMinBuckets),
		mask:    calMinBuckets - 1,
		width:   1,
	}
}

// Len returns the number of queued entries.
func (c *Calendar) Len() int { return c.n }

// slotOf maps a time to its absolute day number, saturating at
// [0, calMaxSlot] so extreme time/width ratios cannot overflow the
// conversion (monotone, so the pop order is unaffected).
func (c *Calendar) slotOf(at float64) int64 {
	q := at / c.width
	if q >= float64(calMaxSlot) {
		return calMaxSlot
	}
	if q < 0 {
		return 0
	}
	return int64(q)
}

// Push inserts e into its day's bucket, keeping the bucket sorted by
// (At, Seq).
//
//probe:writer the calendar is operated only by its owning scheduler goroutine
func (c *Calendar) Push(e *Entry) {
	slot := c.slotOf(e.At)
	c.insert(e, slot)
	if c.n == 0 || slot < c.cur {
		// An entry earlier than the sweep position: rewind so the sweep
		// cannot pop a later entry first.
		c.cur = slot
	}
	c.n++
	if p := c.probe; p != nil {
		p.Pushes++
		if c.n > p.MaxLen {
			p.MaxLen = c.n
		}
	}
	if c.n > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// insert links e into the bucket for slot, in (At, Seq) order.
//
//probe:writer called from Push/resize on the owning scheduler goroutine
func (c *Calendar) insert(e *Entry, slot int64) {
	idx := slot & c.mask
	b := &c.buckets[idx]
	e.pos = int32(idx)
	switch {
	case b.head == nil:
		e.next = nil
		b.head, b.tail = e, e
	case !e.before(b.tail):
		// Time-ordered arrivals (the overwhelmingly common case for a
		// running simulation) append at the tail.
		e.next = nil
		b.tail.next = e
		b.tail = e
	case e.before(b.head):
		e.next = b.head
		b.head = e
	default:
		p := b.head
		steps := 1
		for p.next != nil && !e.before(p.next) {
			p = p.next
			steps++
		}
		e.next = p.next
		p.next = e
		if pr := c.probe; pr != nil {
			pr.ChainSteps += uint64(steps)
			if steps > pr.MaxChain {
				pr.MaxChain = steps
			}
		}
	}
}

// Pop removes and returns the minimum entry, or nil when empty. It
// sweeps day by day from cur; an entry is due when its own slot number
// is <= the day under the sweep. If a whole year passes with nothing
// due (a sparse far-future population), it falls back to a direct
// search over all bucket heads.
//
//probe:writer the calendar is operated only by its owning scheduler goroutine
func (c *Calendar) Pop() *Entry {
	if c.n == 0 {
		return nil
	}
	cur := c.cur
	for k := 0; k < len(c.buckets); k++ {
		b := &c.buckets[cur&c.mask]
		if h := b.head; h != nil && c.slotOf(h.At) <= cur {
			c.cur = cur
			if p := c.probe; p != nil {
				p.Pops++
				p.SweepSteps += uint64(k + 1)
			}
			return c.take(b, h)
		}
		cur++
	}
	// Direct search: every bucket head is that bucket's minimum, so the
	// least head is the global minimum.
	var best *Entry
	var bestB *calBucket
	for i := range c.buckets {
		b := &c.buckets[i]
		if b.head != nil && (best == nil || b.head.before(best)) {
			best, bestB = b.head, b
		}
	}
	c.cur = c.slotOf(best.At)
	if p := c.probe; p != nil {
		p.Pops++
		p.SweepSteps += uint64(len(c.buckets))
		p.DirectScans++
	}
	return c.take(bestB, best)
}

// Peek returns the minimum entry without removing it, or nil when
// empty. It runs Pop's sweep (including the far-future fallback) but
// leaves the entry chained; advancing cur to the found slot is safe
// because the found entry is a global minimum, so every queued entry's
// slot stays >= cur.
//
//probe:writer the calendar is operated only by its owning scheduler goroutine
func (c *Calendar) Peek() *Entry {
	if c.n == 0 {
		return nil
	}
	cur := c.cur
	for k := 0; k < len(c.buckets); k++ {
		b := &c.buckets[cur&c.mask]
		if h := b.head; h != nil && c.slotOf(h.At) <= cur {
			c.cur = cur
			if p := c.probe; p != nil {
				p.SweepSteps += uint64(k + 1)
			}
			return h
		}
		cur++
	}
	var best *Entry
	for i := range c.buckets {
		b := &c.buckets[i]
		if b.head != nil && (best == nil || b.head.before(best)) {
			best = b.head
		}
	}
	c.cur = c.slotOf(best.At)
	if p := c.probe; p != nil {
		p.SweepSteps += uint64(len(c.buckets))
		p.DirectScans++
	}
	return best
}

// take unlinks the head h of bucket b and returns it.
func (c *Calendar) take(b *calBucket, h *Entry) *Entry {
	b.head = h.next
	if b.head == nil {
		b.tail = nil
	}
	h.next = nil
	h.pos = -1
	c.n--
	if len(c.buckets) > calMinBuckets && c.n < len(c.buckets)/8 {
		c.resize(len(c.buckets) / 2)
	}
	return h
}

// Remove unlinks e if it is actually chained in the bucket it claims.
// The identity scan makes stale or foreign handles a safe no-op.
func (c *Calendar) Remove(e *Entry) bool {
	idx := int(e.pos)
	if idx < 0 || idx >= len(c.buckets) {
		return false
	}
	b := &c.buckets[idx]
	var prev *Entry
	for p := b.head; p != nil; prev, p = p, p.next {
		if p != e {
			continue
		}
		if prev == nil {
			b.head = e.next
		} else {
			prev.next = e.next
		}
		if b.tail == e {
			b.tail = prev
		}
		e.next = nil
		e.pos = -1
		c.n--
		if len(c.buckets) > calMinBuckets && c.n < len(c.buckets)/8 {
			c.resize(len(c.buckets) / 2)
		}
		return true
	}
	return false
}

// Fix re-positions a queued entry whose At/Seq changed by re-linking it.
func (c *Calendar) Fix(e *Entry) {
	if !c.Remove(e) {
		return
	}
	c.Push(e)
}

// resize rebuilds the bucket array at size, re-deriving the width from
// the live population: roughly three events per occupied day (Brown's
// rule of thumb), so sweeps touch O(1) entries per pop.
//
//probe:writer called from Push/take on the owning scheduler goroutine
func (c *Calendar) resize(size int) {
	if p := c.probe; p != nil {
		p.Resizes++
		if size > len(c.buckets) {
			p.Grows++
		} else {
			p.Shrinks++
		}
	}
	all := make([]*Entry, 0, c.n)
	for i := range c.buckets {
		for p := c.buckets[i].head; p != nil; p = p.next {
			all = append(all, p)
		}
	}
	// (At, Seq) is a strict total order, so the result is the same
	// whichever algorithm sorts; SortFunc swaps pointers directly where
	// sort.Slice goes through a reflection swapper, and the initial fill
	// of an n-host world resizes log2(n) times.
	slices.SortFunc(all, (*Entry).compare)

	if len(all) > 0 {
		// Brown's width rule samples separations near the *head* of the
		// queue, not the full span: a sparse far-future tail (think
		// disconnect timers pending hundreds of time units out, against
		// operation events microseconds apart) would otherwise smear the
		// dense operating region into a handful of giant buckets and turn
		// every insert into a linear chain scan.
		k := len(all)
		if k > calWidthSample {
			k = calWidthSample
		}
		span := all[k-1].At - all[0].At
		w := 3 * span / float64(k)
		// Keep the absolute slot numbers comfortably inside int64 even
		// for far-future times, and never collapse to a zero width.
		if min := (abs(all[len(all)-1].At) + 1) / 1e15; w < min {
			w = min
		}
		c.width = w
	}

	c.buckets = make([]calBucket, size)
	c.mask = int64(size) - 1
	// Sorted re-insertion means every insert is an O(1) tail append.
	for _, e := range all {
		c.insert(e, c.slotOf(e.At))
	}
	if len(all) > 0 {
		c.cur = c.slotOf(all[0].At)
	} else {
		c.cur = 0
	}
	if p := c.probe; p != nil {
		p.Buckets = len(c.buckets)
		p.Width = c.width
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
