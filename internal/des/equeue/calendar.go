package equeue

import (
	"cmp"
	"math"
	"slices"

	"mobickpt/internal/obs/probe"
)

// Calendar is a lazy calendar queue. Like Brown's calendar (CACM 31(10),
// 1988) it files entries by time into buckets one "day" wide and pops by
// sweeping the days in order, so push and pop are O(1) amortized under
// the stationary populations a DES produces. Unlike Brown's it does no
// ordering work until the sweep needs it:
//
//   - a bucket is an unsorted bag of inline (time, *Entry) records, filled
//     by append. Filing an entry reads the bucket's header and writes one
//     record; it never dereferences another entry.
//   - the bucket under the sweep is the near list: its records are moved
//     out, sorted once by (At, Seq), and popped from the front. Sorting
//     compares the inline times and reads Seq through the pointer only on
//     an exact tie. Pushes that land at or below the sweep insert into the
//     near list in order.
//   - the buckets cover one year, [start, start + len(buckets)·width).
//     Entries beyond it wait, unsorted, in the overflow. When the sweep
//     runs off the year's end the whole population is in the overflow; a
//     new year starts at its minimum, width and bucket count are re-derived
//     from a sorted sample of it (newYear), and the overflow is dealt into
//     the buckets in one pass over the inline times.
//
// Three invariants carry the pop order (validate in the tests walks them):
// every bucket record sits in the bucket slot() maps its time to and every
// overflow record maps beyond the year; the near list is sorted and holds
// exactly the entries mapping at or below the sweep position cur, so no
// bucket at or below cur is non-empty; and slot() is monotone in time.
// Together they make the near list's head the global (At, Seq) minimum —
// the order the heap produces, so a simulation is bit-identical on either.
//
// Memory: records live in 128-byte chunks of seven, drawn from one arena
// with a free list that buckets and overflow share — 18.3 B per queued
// entry in full chunks, about half a chunk of slack per non-empty bucket
// (≈ 22 B per entry at the 16 entries a bucket is sized for), plus 16 B
// per bucket (one per 16 entries) and the near list, which is as long as
// the fullest bucket opened. Chunks are recycled, never returned: once the
// population has peaked the queue allocates nothing.
type Calendar struct {
	// near[head:] is the sorted near list; near[:head] already popped.
	near []calRec
	head int
	n    int // queued entries: near list + buckets + overflow

	// The year's geometry, read by slot() on every push.
	start float64 // time the year begins at (the population minimum then)
	inv   float64 // 1/width
	nbf   float64 // float64(len(buckets))
	cur   int     // bucket the near list was opened from; -1 while dealing

	buckets []calBucket

	// The overflow: chunks in filing order, all full but the last.
	ov    []*calChunk
	ovN   int
	ovMin float64 // exact minimum time in the overflow; +Inf when empty

	free     *calChunk  // recycled chunks, linked through next
	slab     []calChunk // unissued tail of the newest slab
	slabSize int

	sample []float64 // newYear's scratch

	probe *probe.QueueProbe // nil unless the observatory is attached
}

// calRec is one filed entry: its time inline, so that sweeping, dealing
// and sorting read the records and not the entries they point at.
type calRec struct {
	at float64
	e  *Entry
}

// calChunk is the arena's unit, two cache lines. Bucket chains link
// through next, newest chunk first; the overflow indexes its chunks from a
// slice instead, so a deal's chunk loads do not depend on one another.
type calChunk struct {
	recs [calChunkLen]calRec
	next *calChunk
	_    [8]byte // pad 120 B to 128 so slabs stay line-aligned
}

// calBucket is one day: a chain of chunks, all full but the head, holding
// n records in no particular order.
type calBucket struct {
	head *calChunk
	n    int32
}

const (
	calChunkLen = 7

	// calPerBucket is the number of near-term entries a bucket is sized
	// for: few enough that sorting one on opening is a handful of
	// compares, many enough that the bucket table (16 B per bucket) stays
	// a small fraction of the records it indexes.
	calPerBucket = 16

	// calSample bounds the population sample a year's geometry is derived
	// from. The width comes from the span of the sample's lowest
	// 1/calHeadShare (at least its calHeadMin lowest values, so that a
	// small sample's estimate is not one gap), the bucket count from the
	// whole population: a year is as long as it takes the head's density
	// to pop about one population's worth of entries, and it is dealt at
	// least a sixteenth of the population, so a deal's pass over the
	// overflow is O(1) per pop.
	calSample    = 256
	calHeadShare = 16
	calHeadMin   = 8

	// Chunk slabs double from calSlabMin to calSlabMax chunks: a queue of
	// twenty entries pays for a few chunks, a million-entry fill for one
	// allocation per 128 kB.
	calSlabMin = 4
	calSlabMax = 1024

	// A bucket table is reallocated only when the bucket count a year asks
	// for exceeds its capacity or falls below 1/calShrink of it; between
	// the two the year reslices the table it has.
	calShrink = 8

	// calSmallSort is the longest bucket sorted by straight insertion.
	calSmallSort = 32

	// calFiled is Entry.pos while the calendar holds the entry. The queue
	// finds an entry by its time, not by pos; pos only says "queued".
	calFiled = 0
)

// NewCalendar returns an empty calendar queue. It has no year yet, so
// every push goes to the overflow until the first Pop or Peek derives a
// geometry from what was pushed.
func NewCalendar() *Calendar {
	c := &Calendar{}
	c.endYear()
	return c
}

// SetProbe attaches (or, with nil, detaches) an internals probe. The
// probe shares the queue's single-writer discipline: only the owning
// goroutine may operate the queue, and readers must wait for the run to
// quiesce.
func (c *Calendar) SetProbe(p *probe.QueueProbe) {
	c.probe = p
	if p != nil {
		p.Kind = "calendar"
		p.Buckets = len(c.buckets)
		p.Width = 1 / c.inv
	}
}

// Len returns the number of queued entries.
func (c *Calendar) Len() int { return c.n }

// endYear leaves an empty queue with no year: slot() sends every time to
// the overflow until newYear derives a geometry from what was pushed.
func (c *Calendar) endYear() {
	c.buckets = c.buckets[:0]
	c.start, c.inv, c.nbf, c.cur = math.Inf(-1), 1, 0, 0
	c.ovMin = math.Inf(1)
}

// slot maps a time to the bucket it files into this year; a result of
// len(buckets) or more means the overflow. It is the one placement
// function — Push, the deal and Remove all go through it — and it is
// monotone: subtraction, multiplication by a positive constant and
// truncation all preserve order, so a later bucket never holds an earlier
// time. Times at or before the year's start share bucket 0 (which also
// keeps a +Inf start from producing Inf−Inf).
func (c *Calendar) slot(at float64) int {
	if at <= c.start {
		return 0
	}
	q := (at - c.start) * c.inv
	if !(q < c.nbf) {
		return math.MaxInt
	}
	return int(q)
}

// Push files e by its time. At must not be NaN (des refuses one).
func (c *Calendar) Push(e *Entry) {
	if c.n == 0 {
		// Refilling a drained queue under the old year's geometry could
		// send every entry to the near list's ordered insert; start over.
		c.endYear()
	}
	e.pos = calFiled
	c.n++
	c.file(calRec{e.At, e})
	if p := c.probe; p != nil {
		p.Pushes++
		if c.n > p.MaxLen {
			p.MaxLen = c.n
		}
	}
}

// file places one record: in its bucket when that lies ahead of the sweep
// within the year, in the near list when at or below the sweep, in the
// overflow otherwise.
func (c *Calendar) file(r calRec) {
	switch s := c.slot(r.at); {
	case s <= c.cur:
		c.insertNear(r)
	case s < len(c.buckets):
		b := &c.buckets[s]
		k := int(b.n) % calChunkLen
		if k == 0 {
			ch := c.newChunk()
			ch.next = b.head
			b.head = ch
		}
		b.head.recs[k] = r
		b.n++
	default:
		k := c.ovN % calChunkLen
		if k == 0 {
			c.ov = append(c.ov, c.newChunk())
		}
		c.ov[len(c.ov)-1].recs[k] = r
		c.ovN++
		if r.at < c.ovMin {
			c.ovMin = r.at
		}
	}
}

// before is the (At, Seq) order on records; Seq is read through the
// pointer only when the inline times tie exactly.
func (r calRec) before(s calRec) bool {
	if r.at != s.at {
		return r.at < s.at
	}
	return r.e.Seq < s.e.Seq
}

// insertNear puts r into the near list in order, shifting later records
// up from the tail: an entry later than everything in the open bucket —
// the common case, and every case in a burst at one instant — moves none.
func (c *Calendar) insertNear(r calRec) {
	if c.head > 0 && len(c.near) == cap(c.near) {
		// Reclaim the popped prefix before growing.
		k := copy(c.near, c.near[c.head:])
		clear(c.near[k:])
		c.near, c.head = c.near[:k], 0
	}
	c.near = append(c.near, r)
	i := len(c.near) - 1
	for ; i > c.head && r.before(c.near[i-1]); i-- {
		c.near[i] = c.near[i-1]
	}
	c.near[i] = r
	if p := c.probe; p != nil {
		steps := len(c.near) - 1 - i
		p.ChainSteps += uint64(steps)
		if steps > p.MaxChain {
			p.MaxChain = steps
		}
	}
}

// Pop removes and returns the minimum entry, or nil when empty.
func (c *Calendar) Pop() *Entry {
	if c.head == len(c.near) && !c.open() {
		return nil
	}
	e := c.near[c.head].e
	c.near[c.head] = calRec{}
	c.head++
	c.n--
	e.pos = -1
	if p := c.probe; p != nil {
		p.Pops++
	}
	return e
}

// Peek returns the minimum entry without removing it, or nil when empty.
// Opening the next bucket to find it moves the sweep forward; a later Push
// below the new sweep position lands in the near list, in order.
func (c *Calendar) Peek() *Entry {
	if c.head == len(c.near) && !c.open() {
		return nil
	}
	return c.near[c.head].e
}

// open advances the sweep to the next non-empty bucket and makes its
// records the near list; it reports false when the queue is empty. Called
// with the near list exhausted, so everything queued lies ahead of cur or
// in the overflow; when the year's buckets run out it is all in the
// overflow, and a new year begins at its minimum — bucket 0 of a new year
// is never empty, so the sweep crosses no more than one year's tail.
func (c *Calendar) open() bool {
	if c.n == 0 {
		return false
	}
	c.near, c.head = c.near[:0], 0
	examined := 0
	for {
		for c.cur+1 < len(c.buckets) {
			c.cur++
			examined++
			if b := &c.buckets[c.cur]; b.n != 0 {
				c.load(b)
				if p := c.probe; p != nil {
					p.SweepSteps += uint64(examined)
				}
				return true
			}
		}
		c.newYear()
	}
}

// load moves bucket b's records into the near list, recycles its chunks
// and sorts the list.
func (c *Calendar) load(b *calBucket) {
	k := tailLen(int(b.n)) // records in the head chunk; the rest are full
	for ch := b.head; ch != nil; k = calChunkLen {
		c.near = append(c.near, ch.recs[:k]...)
		next := ch.next
		c.freeChunk(ch)
		ch = next
	}
	b.head, b.n = nil, 0
	sortRecs(c.near)
	// Read one word of every entry in the bucket before the first of them
	// fires. The loads are independent of one another, so their cache
	// misses overlap here instead of being paid one per Pop — Go has no
	// prefetch intrinsic, and this is the whole of the queue's gain at
	// populations that outgrow the cache (EXPERIMENTS E29). What the word
	// is checked for is an entry pushed twice and already popped once.
	for _, r := range c.near {
		if r.e.pos != calFiled {
			panic("equeue: calendar holds an entry that is not queued (pushed twice?)")
		}
	}
}

// sortRecs sorts by (At, Seq): straight insertion for the bucket sizes
// the geometry aims at, the library's pattern-defeating quicksort beyond.
func sortRecs(s []calRec) {
	if len(s) > calSmallSort {
		slices.SortFunc(s, func(a, b calRec) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.e.Seq, b.e.Seq)
		})
		return
	}
	for i := 1; i < len(s); i++ {
		r := s[i]
		j := i
		for ; j > 0 && r.before(s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = r
	}
}

// newYear starts the year at the overflow's minimum and deals the
// overflow into it. Width and bucket count come from a sorted systematic
// sample of the whole population: a bucket is as wide as calPerBucket
// entries at the density of the population's head — where the sweep is
// about to go, and where a simulation's arrivals keep landing — however
// large a share of the population waits in a far tail of timers, and
// there is one bucket per calPerBucket entries of the population. A
// cluster of near-simultaneous entries can narrow one year, but it is
// popped in that year and the next is derived afresh. Entries the year
// does not reach stay in the overflow, compacted in place as it is dealt.
func (c *Calendar) newYear() {
	n := c.ovN
	stride := (n + calSample - 1) / calSample
	c.sample = c.sample[:0]
	for i := 0; i < n; i += stride {
		c.sample = append(c.sample, c.ov[i/calChunkLen].recs[i%calChunkLen].at)
	}
	slices.Sort(c.sample)
	// The head's density: how many entries lie within what span of the
	// minimum, read off the sample's lowest sixteenth — or, when that much
	// of the population shares the minimum, off the first larger share
	// that has a span.
	m := len(c.sample)
	span, below := 0.0, 0
	for j := max((m-1)/calHeadShare, min(calHeadMin, m-1)); ; j = min(2*j, m-1) {
		span, below = c.sample[j]-c.ovMin, j*stride
		if span > 0 || j == m-1 {
			break
		}
	}
	nb := n/calPerBucket + 1
	width := 1.0 // everything at one instant: any width files it in bucket 0
	if span > 0 && !math.IsInf(span, 1) {
		width = calPerBucket * span / float64(below)
	}

	if nb > cap(c.buckets) || nb < cap(c.buckets)/calShrink {
		if p := c.probe; p != nil {
			p.Resizes++
			if nb > cap(c.buckets) {
				p.Grows++
			} else {
				p.Shrinks++
			}
		}
		c.buckets = make([]calBucket, nb, 2*nb)
	}
	c.buckets = c.buckets[:nb]
	c.start, c.inv, c.nbf, c.cur = c.ovMin, 1/width, float64(nb), -1
	if p := c.probe; p != nil {
		p.DirectScans++
		p.Buckets = nb
		p.Width = width
	}

	// Deal. Each chunk is copied out and recycled before its records are
	// filed, so the chunks the buckets need are the ones the overflow just
	// gave up, and the records that stay refill c.ov from the front —
	// never past the chunk being read.
	old, last := c.ov, tailLen(n)
	c.ov, c.ovN, c.ovMin = c.ov[:0], 0, math.Inf(1)
	for i, ch := range old {
		recs, k := ch.recs, calChunkLen
		if i == len(old)-1 {
			k = last
		}
		c.freeChunk(ch)
		for _, r := range recs[:k] {
			c.file(r)
		}
	}
	clear(old[len(c.ov):])
}

// Remove unfiles e if it is queued here, reporting whether it was. The
// queue finds an entry where slot() files its time — which is why an
// entry's At must not change while it is queued — and confirms it by
// identity, so a stale or foreign handle is a safe no-op. The cost is a
// scan of one bucket, of the near list, or — for an entry beyond the
// current year — of the whole overflow.
func (c *Calendar) Remove(e *Entry) bool {
	if e.pos != calFiled || c.n == 0 {
		return false
	}
	switch s := c.slot(e.At); {
	case s <= c.cur:
		i := c.head
		for ; i < len(c.near) && c.near[i].e != e; i++ {
		}
		if i == len(c.near) {
			return false
		}
		// Close the gap: the near list stays sorted.
		copy(c.near[i:], c.near[i+1:])
		c.near[len(c.near)-1] = calRec{}
		c.near = c.near[:len(c.near)-1]
	case s < len(c.buckets):
		b := &c.buckets[s]
		r := findRec(b.head, e)
		if r == nil {
			return false
		}
		// A bucket is unordered: its last record fills the gap.
		k := tailLen(int(b.n)) - 1
		*r = b.head.recs[k]
		b.head.recs[k] = calRec{}
		b.n--
		if k == 0 {
			ch := b.head
			b.head = ch.next
			c.freeChunk(ch)
		}
	default:
		var r *calRec
		for _, ch := range c.ov {
			if r = findRec(ch, e); r != nil {
				break
			}
		}
		if r == nil {
			return false
		}
		last, k := len(c.ov)-1, tailLen(c.ovN)-1
		*r = c.ov[last].recs[k]
		c.ov[last].recs[k] = calRec{}
		c.ovN--
		if k == 0 {
			c.freeChunk(c.ov[last])
			c.ov[last] = nil
			c.ov = c.ov[:last]
		}
		if e.At <= c.ovMin {
			// e held the minimum, which must stay exact: recompute it.
			c.ovMin = math.Inf(1)
			for _, ch := range c.ov {
				for _, r := range ch.recs {
					if r.e != nil {
						c.ovMin = min(c.ovMin, r.at)
					}
				}
			}
		}
	}
	e.pos = -1
	c.n--
	return true
}

// tailLen returns how many records the one chunk that need not be full
// holds — a bucket's head, the overflow's last — in a list of n > 0.
func tailLen(n int) int { return (n-1)%calChunkLen + 1 }

// findRec looks for e's record in ch and the chunks chained behind it.
// Unused records are clear, so they match no entry.
func findRec(ch *calChunk, e *Entry) *calRec {
	for ; ch != nil; ch = ch.next {
		for i := range ch.recs {
			if ch.recs[i].e == e {
				return &ch.recs[i]
			}
		}
	}
	return nil
}

// newChunk returns an empty chunk: recycled, or carved from the current
// slab, or from a new slab twice the size of the last.
func (c *Calendar) newChunk() *calChunk {
	if ch := c.free; ch != nil {
		c.free = ch.next
		ch.next = nil
		return ch
	}
	if len(c.slab) == 0 {
		c.slabSize = min(max(2*c.slabSize, calSlabMin), calSlabMax)
		c.slab = make([]calChunk, c.slabSize)
	}
	ch := &c.slab[0]
	c.slab = c.slab[1:]
	return ch
}

// freeChunk recycles ch, cleared so it pins no entry while it waits.
func (c *Calendar) freeChunk(ch *calChunk) {
	*ch = calChunk{next: c.free}
	c.free = ch
}
