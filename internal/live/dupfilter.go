package live

// dupWindow is the per-host duplicate-suppression window: how many
// recently delivered packet ids a host remembers. The transport
// duplicates a packet at most once and puts the copy into the host's
// FIFO downlink together with its original (one mailbox.put, so no other
// station's packet lands between them): the copy is the very next
// delivery the host sees, and any window bounds away from 1 are pure
// slack against future transport changes.
const dupWindow = 4096

// dupFilter is each host's bounded-memory at-least-once filter. The old
// implementation kept one map entry per delivered message forever — an
// unbounded leak over a long-running cluster. This one remembers at
// most window ids in a FIFO ring: a suppressed duplicate is forgotten
// immediately (its second copy was its last), and inserting into a full
// window evicts the oldest remembered id.
//
// Each filter is touched only by its owner host's goroutine while the
// run is live, and by the final drain after every goroutine has stopped
// (ordered by the WaitGroup) — same discipline as the map it replaces.
type dupFilter struct {
	window int
	ring   []uint64       // delivered ids, oldest overwritten first
	head   int            // next ring slot to overwrite once full
	slot   map[uint64]int // id -> ring slot, dropped on dup or eviction
}

func newDupFilter(window int) *dupFilter {
	return &dupFilter{window: window, slot: make(map[uint64]int)}
}

// Suppress reports whether id is a duplicate of a remembered delivery.
// A fresh id is remembered; a duplicate is forgotten on the spot
// (packet ids are never reused, and the transport duplicates at most
// once, so a third copy cannot exist).
func (f *dupFilter) Suppress(id uint64) bool {
	if _, dup := f.slot[id]; dup {
		delete(f.slot, id)
		return true
	}
	if len(f.ring) < f.window {
		f.slot[id] = len(f.ring)
		f.ring = append(f.ring, id)
		return false
	}
	// Full: evict the oldest slot. Its map entry may already be gone
	// (the id's duplicate arrived earlier and dropped it).
	delete(f.slot, f.ring[f.head])
	f.ring[f.head] = id
	f.slot[id] = f.head
	f.head = (f.head + 1) % f.window
	return false
}

// Len reports how many ids the filter currently remembers. Bounded by
// the window; tests pin it.
func (f *dupFilter) Len() int { return len(f.slot) }
