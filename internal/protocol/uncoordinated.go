package protocol

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// local is the core the protocols without communication-induced
// checkpoints (UNC, CL, PS) share: a basic checkpoint at every hand-off
// and disconnection, nothing on the messages. Checkpoints are numbered
// by ordinal; the numbers carry no consistency meaning.
type local struct {
	name string
	ckpt Checkpointer
	next []int
}

func newLocal(name string, n int, ckpt Checkpointer) local {
	return local{name: name, ckpt: ckpt, next: make([]int, n)}
}

// Name implements Protocol.
func (l *local) Name() string { return l.name }

// Init implements Protocol.
func (l *local) Init() {
	for i := range l.next {
		l.ckpt(mobile.HostID(i), 0, storage.Initial)
		l.next[i] = 1
	}
}

// take checkpoints host h at its next ordinal.
func (l *local) take(h mobile.HostID, kind storage.Kind) {
	l.ckpt(h, l.next[h], kind)
	l.next[h]++
}

// OnSend implements Protocol: nothing is piggybacked.
func (l *local) OnSend(from, to mobile.HostID) any { return nil }

// OnDeliver implements Protocol: no forced checkpoints on delivery.
func (l *local) OnDeliver(h, from mobile.HostID, pb any) {}

// OnCellSwitch implements Protocol: the basic checkpoint the mobile model
// demands.
func (l *local) OnCellSwitch(h mobile.HostID, newMSS mobile.MSSID) { l.take(h, storage.Basic) }

// OnDisconnect implements Protocol: same rule as a cell switch.
func (l *local) OnDisconnect(h mobile.HostID) { l.take(h, storage.Basic) }

// OnReconnect implements Protocol (no action).
func (l *local) OnReconnect(h mobile.HostID, at mobile.MSSID) {}

// PiggybackBytes implements Protocol: always zero.
func (l *local) PiggybackBytes() int64 { return 0 }

// OnJoin implements Protocol: free, since there is no coordination to
// update.
func (l *local) OnJoin(h mobile.HostID) int64 {
	if int(h) != len(l.next) {
		panic("protocol: " + l.name + " join with non-dense host id")
	}
	l.ckpt(h, 0, storage.Initial)
	l.next = append(l.next, 1)
	return 0
}

// Uncoordinated is the baseline of the paper's first protocol class (§2):
// hosts take only the checkpoints mobility forces on them (basic
// checkpoints at cell switches and disconnections) and never coordinate.
// It is the floor on N_tot — no protocol can take fewer checkpoints in
// the mobile model — but it provides no recovery-line guarantee: the
// recovery analysis (internal/recovery) demonstrates the domino effect
// on its checkpoints.
type Uncoordinated struct{ local }

// NewUncoordinated creates the baseline for n hosts.
func NewUncoordinated(n int, ckpt Checkpointer) *Uncoordinated {
	return &Uncoordinated{newLocal("UNC", n, ckpt)}
}
