// Package equeue holds the pending-event set implementations behind the
// des engine. The engine needs one total order — (At, Seq) ascending,
// Seq breaking virtual-time ties FIFO — and a handful of operations:
// push, pop-min, peek and remove-by-handle. Moving a queued entry is
// Remove, restamp, Push; there is no other way. Everything else (pooling,
// labels, handlers) stays in des.
//
// Two implementations are provided:
//
//   - Heap: a hand-written binary min-heap. O(log n) per operation,
//     branch-predictable, and the reference implementation the paper
//     figures are gated on.
//   - Calendar: a lazy calendar queue. Entries are filed by time into
//     unsorted buckets of inline (time, pointer) records, a bucket is
//     sorted when the sweep opens it, and entries beyond the current
//     "year" wait in an unsorted overflow; O(1) amortized per operation
//     under the stationary event populations a DES produces, and about
//     one cache miss per push at populations that outgrow the cache.
//
// Both implement Queue and are observationally identical: for any
// sequence of operations the same entries come back in the same order
// (equeue_test.go drives them in lockstep under randomized churn).
//
// Entries are intrusive: the queues store *Entry and keep the one word
// of bookkeeping they need (the heap its index, the calendar a "queued"
// mark) inside the Entry itself; the calendar's records live in an arena
// it recycles. Scheduling is allocation-free on either in steady state.
package equeue

import "mobickpt/internal/obs/probe"

// Entry is one queued occurrence. The owner (des) sets At and Seq
// before pushing and must not mutate them while the entry is queued: the
// calendar finds an entry by the slot its time maps to. At must not be
// NaN. E points back at the owner's event record; the queues never touch
// it.
type Entry struct {
	At  float64 // virtual firing time
	Seq uint64  // FIFO tiebreaker among equal times
	E   any     // back-pointer to the owning event (opaque to the queue)

	// Bookkeeping owned by the queue the entry currently sits in: the
	// heap stores its slot index, the calendar calFiled; -1 once released.
	pos int32
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
}

// Probed is implemented by queues that can expose an internals probe
// (both in-tree queues do). Owners attach probes by type-asserting so
// the Queue contract itself stays free of observability concerns.
type Probed interface {
	SetProbe(*probe.QueueProbe)
}
