package protocol

import "mobickpt/internal/mobile"

// Periodic is implemented by protocols that take timer-driven local
// checkpoints in addition to mobility-driven ones. Unlike Initiator, no
// control messages travel: OnTick is a purely local event the
// environment delivers to every host each period.
type Periodic interface {
	OnTick(h mobile.HostID)
}

// MS is an extension beyond the paper: an index-based protocol in the
// style of Manivannan–Singhal's quasi-synchronous checkpointing, the
// shape the index protocols take in *wired* systems where no mobility
// events exist to drive basic checkpoints. Each host increments its
// index on a local timer (OnTick) as well as at mobility events, and
// forces on m.sn > sn_i exactly like BCS. Comparing MS against BCS
// isolates how much of the index protocols' checkpoint count comes from
// the mobile setting itself.
type MS struct{ indexed }

// NewMS creates an MS instance for n hosts.
func NewMS(n int, ckpt Checkpointer) *MS {
	return &MS{newIndexed("MS", n, ckpt)}
}

// OnTick implements Periodic: the timer-driven basic checkpoint.
func (m *MS) OnTick(h mobile.HostID) { m.bump(h) }
