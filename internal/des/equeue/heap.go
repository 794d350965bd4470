package equeue

import "mobickpt/internal/obs/probe"

// Heap is the reference pending-event set: a hand-written binary
// min-heap ordered by (At, Seq). It is the default implementation and
// the one the paper-figure gate runs against; the calendar queue must
// match its pop order exactly.
//
// Hand-written rather than container/heap so the comparisons inline and
// no interface dispatch sits on the hot path.
type Heap struct {
	s     []*Entry
	probe *probe.QueueProbe
}

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// SetProbe attaches (or, with nil, detaches) an internals probe. The
// heap has no structural counters beyond push/pop volume and peak
// occupancy; the interesting internals live on the calendar queue.
func (h *Heap) SetProbe(p *probe.QueueProbe) {
	h.probe = p
	if p != nil {
		p.Kind = "heap"
	}
}

// Len returns the number of queued entries.
func (h *Heap) Len() int { return len(h.s) }

// Push inserts e.
func (h *Heap) Push(e *Entry) {
	e.pos = int32(len(h.s))
	h.s = append(h.s, e)
	h.up(len(h.s) - 1)
	if p := h.probe; p != nil {
		p.Pushes++
		if len(h.s) > p.MaxLen {
			p.MaxLen = len(h.s)
		}
	}
}

// Pop removes and returns the minimum entry, or nil when empty.
func (h *Heap) Pop() *Entry {
	if len(h.s) == 0 {
		return nil
	}
	if p := h.probe; p != nil {
		p.Pops++
	}
	e := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s[0].pos = 0
	h.s[last] = nil
	h.s = h.s[:last]
	if last > 0 {
		h.down(0)
	}
	e.pos = -1
	return e
}

// Peek returns the minimum entry without removing it, or nil when empty.
func (h *Heap) Peek() *Entry {
	if len(h.s) == 0 {
		return nil
	}
	return h.s[0]
}

// Remove unlinks e if it is actually queued here. The identity check
// (the slot e claims must hold e itself) makes stale handles — events
// that already fired, or whose slot was since reused — a safe no-op.
func (h *Heap) Remove(e *Entry) bool {
	i := int(e.pos)
	if i < 0 || i >= len(h.s) || h.s[i] != e {
		return false
	}
	last := len(h.s) - 1
	if i != last {
		h.s[i] = h.s[last]
		h.s[i].pos = int32(i)
	}
	h.s[last] = nil
	h.s = h.s[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	e.pos = -1
	return true
}

func (h *Heap) up(i int) {
	e := h.s[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.s[parent]
		if !e.before(p) {
			break
		}
		h.s[i] = p
		p.pos = int32(i)
		i = parent
	}
	h.s[i] = e
	e.pos = int32(i)
}

func (h *Heap) down(i int) {
	n := len(h.s)
	e := h.s[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.s[right].before(h.s[left]) {
			min = right
		}
		c := h.s[min]
		if !c.before(e) {
			break
		}
		h.s[i] = c
		c.pos = int32(i)
		i = min
	}
	h.s[i] = e
	e.pos = int32(i)
}
