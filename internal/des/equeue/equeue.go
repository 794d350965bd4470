// Package equeue holds the pending-event set implementations behind the
// des engine. The engine needs one total order — (At, Seq) ascending,
// Seq breaking virtual-time ties FIFO — and a handful of operations:
// push, pop-min, remove-by-handle, and re-position after a time change.
// Everything else (pooling, labels, handlers) stays in des.
//
// Two implementations are provided:
//
//   - Heap: a hand-written binary min-heap. O(log n) per operation,
//     branch-predictable, and the reference implementation the paper
//     figures are gated on.
//   - Calendar: Brown's calendar queue (CACM 1988). Hash events into
//     time-width buckets, dequeue by sweeping the current "year"; O(1)
//     amortized enqueue/dequeue under the stationary event populations
//     a DES produces, which is what keeps million-event churn flat.
//
// Both implement Queue and are observationally identical: for any
// sequence of operations the same entries come back in the same order
// (equeue_test.go drives them in lockstep under randomized churn).
//
// Entries are intrusive: the queues store *Entry and keep their
// bookkeeping (heap index or bucket index, chain pointer) inside the
// Entry itself, so scheduling stays allocation-free regardless of the
// implementation selected.
package equeue

import (
	"cmp"

	"mobickpt/internal/obs/probe"
)

// Entry is one queued occurrence. The owner (des) sets At and Seq
// before pushing and must not mutate them while the entry is queued
// except through Queue.Fix. E points back at the owner's event record;
// the queues never touch it.
type Entry struct {
	At  float64 // virtual firing time
	Seq uint64  // FIFO tiebreaker among equal times
	E   any     // back-pointer to the owning event (opaque to the queue)

	// Bookkeeping owned by the queue the entry currently sits in:
	// the heap stores its slot index in pos, the calendar stores the
	// bucket index in pos and chains entries through next.
	pos  int32
	next *Entry
}

// Queued reports whether the entry currently sits in a queue. A
// zero-value Entry that was never pushed reports false only after a
// queue has released it; the des layer guards zero values by owner
// checks before consulting this.
func (e *Entry) Queued() bool { return e != nil && e.pos >= 0 }

// before is the engine's total order: (At, Seq) ascending.
func (e *Entry) before(f *Entry) bool {
	if e.At != f.At {
		return e.At < f.At
	}
	return e.Seq < f.Seq
}

// compare is before as a three-way comparison, for sorting.
func (e *Entry) compare(f *Entry) int {
	if e.At != f.At {
		if e.At < f.At {
			return -1
		}
		return 1
	}
	return cmp.Compare(e.Seq, f.Seq)
}

// Queue is the pending-event set. Implementations must order entries by
// (At, Seq) ascending and tolerate stale handles in Remove (an entry
// that already popped, or that was never pushed, returns false and
// leaves the queue untouched).
type Queue interface {
	// Len returns the number of queued entries.
	Len() int
	// Push inserts e. The caller has set At and Seq; e must not
	// currently be queued.
	Push(e *Entry)
	// Pop removes and returns the minimum entry, or nil when empty.
	Pop() *Entry
	// Peek returns the minimum entry without removing it, or nil when
	// empty. The caller must not mutate the returned entry.
	Peek() *Entry
	// Remove unlinks e if it is actually queued here, reporting whether
	// it did. Stale or foreign handles return false without side
	// effects.
	Remove(e *Entry) bool
	// Fix re-positions a queued entry after its At/Seq changed. Calling
	// it on an unqueued entry is undefined; des only calls it on
	// entries it just verified are queued.
	Fix(e *Entry)
}

// Probed is implemented by queues that can expose an internals probe
// (both in-tree queues do). Owners attach probes by type-asserting so
// the Queue contract itself stays free of observability concerns.
type Probed interface {
	SetProbe(*probe.QueueProbe)
}
