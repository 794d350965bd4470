package live

// dupFilter is each host's at-least-once filter, and it remembers one
// packet id: the last fresh delivery. That is all it needs. The transport
// duplicates a packet at most once and puts the copy into the host's FIFO
// downlink together with its original (one mailbox.put, so no other
// station's packet lands between them): a duplicate is always the very
// next delivery the host sees after its original. The id is forgotten
// once its copy is suppressed (packet ids are never reused, so a third
// copy cannot exist).
//
// Each filter is touched only by its owner host's goroutine while the
// run is live, and by the final drain after every goroutine has stopped
// (ordered by the WaitGroup).
type dupFilter struct {
	last uint64 // the id of the last fresh delivery, while held
	held bool
}

// Suppress reports whether id is the copy of the delivery just before it.
// A fresh id is remembered, and its copy is suppressed once.
func (f *dupFilter) Suppress(id uint64) bool {
	if f.held && f.last == id {
		f.held = false
		return true
	}
	f.last, f.held = id, true
	return false
}
