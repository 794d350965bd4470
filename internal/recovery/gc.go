package recovery

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// StableIndex returns the garbage-collection frontier of an index-based
// protocol's store: the smallest "latest live index" across hosts. Any
// future failure makes some host f restore its latest checkpoint, whose
// index x_f is at least this value; every other host then restores its
// first checkpoint with index >= x_f. Checkpoints strictly before a
// host's first checkpoint with index >= StableIndex can therefore never
// appear in any future recovery line and are safe to discard — the
// mobile setting's answer to limited MSS storage.
//
// It returns 0 for an empty store (nothing can be collected).
func StableIndex(store *storage.Store, n int) int {
	stable := -1
	for h := 0; h < n; h++ {
		rec := store.LatestLive(mobile.HostID(h))
		if rec == nil {
			return 0
		}
		if stable == -1 || rec.Index < stable {
			stable = rec.Index
		}
	}
	if stable < 0 {
		return 0
	}
	return stable
}

// Frontier returns the ordinal of the earliest checkpoint of host h that
// a future recovery line can still restore, given stable, the store's
// StableIndex: h's first live checkpoint with index >= stable. Nothing
// below it is ever needed again — neither the checkpoints before it
// (CollectGarbage) nor the logged receives at or before it, which no
// rollback can undo and so no replay re-delivers (mlog.PruneDelivered
// takes the returned ordinal as is). It is the one definition of "what an
// MSS may discard for h", asked by the simulator's GC tick for every host
// and by a live or replayed hand-off for the switching host alone.
//
// stable must cover every current host — a late joiner's low index holds
// the frontier back, and pruning past it would destroy the lines its
// failure still needs. Frontier returns -1 when h has no live checkpoint
// at or above stable (nothing is safe to discard); both pruners treat -1
// as "keep everything". The protocol must be index-based
// (protocol.Entry.IndexBased): for any other the lines are not index
// cuts and the answer means nothing.
func Frontier(store *storage.Store, h mobile.HostID, stable int) int {
	keep := store.FirstWithIndexAtLeast(h, stable)
	if keep == nil {
		return -1
	}
	return keep.Ordinal
}

// CollectGarbage prunes every checkpoint that cannot appear in any
// future recovery line (see StableIndex) and returns the number of
// records and the state volume reclaimed across all hosts.
func CollectGarbage(store *storage.Store, n int) (records int, units int64) {
	stable := StableIndex(store, n)
	for h := 0; h < n; h++ {
		r, u := store.PruneBefore(mobile.HostID(h), Frontier(store, mobile.HostID(h), stable))
		records += r
		units += u
	}
	return records, units
}
