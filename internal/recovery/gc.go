package recovery

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// StableIndex returns the garbage-collection frontier of an index-based
// protocol's store over its n current hosts: the smallest "latest live
// index" across them. A failure of any of them restores its latest
// checkpoint, of index x_f at least this value, and every other host its
// first checkpoint with index >= x_f; so the checkpoints before a host's
// first one with index >= StableIndex are in no future line of these
// hosts — the mobile setting's answer to limited MSS storage. A host
// that joins later, at index 0, is not covered (DESIGN §3).
//
// It returns 0 for an empty store (nothing can be collected).
func StableIndex(store *storage.Store, n int) int {
	stable := -1
	for h := 0; h < n; h++ {
		rec := store.LatestLive(mobile.HostID(h))
		if rec == nil {
			return 0
		}
		if stable == -1 || int(rec.Index) < stable {
			stable = int(rec.Index)
		}
	}
	if stable < 0 {
		return 0
	}
	return stable
}

// Frontier returns the ordinal of host h's first live checkpoint with
// index >= stable (the store's StableIndex), or -1, "keep everything",
// when it has none: the earliest checkpoint of h a future recovery line
// can restore. Neither the checkpoints before it nor the logged receives
// at or before it are needed again (mlog.PruneDelivered takes the ordinal
// as is). Only an index-based protocol's lines are index cuts; every
// world asks through protoside.Slot.Frontier, which decides that.
func Frontier(store *storage.Store, h mobile.HostID, stable int) int {
	keep := store.FirstWithIndexAtLeast(h, stable)
	if keep == nil {
		return -1
	}
	return int(keep.Ordinal)
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
