package protocol

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// IndexPiggyback is the single integer (the sender's checkpoint sequence
// number) that the index-based protocols attach to application messages.
// Its constant size is why BCS and QBC "scale well with respect to the
// number of hosts" (§4.2).
type IndexPiggyback int

// indexed is the core the index-based protocols (BCS, QBC, MS) share:
// every checkpoint carries a sequence number sn, the sender's sn rides on
// each message, receiving a message with m.sn > sn_i forces a checkpoint
// with index m.sn, and every basic checkpoint (cell switch,
// disconnection) increments sn_i. QBC changes only the basic rule, MS
// only adds a timer to it.
type indexed struct {
	name      string
	ckpt      Checkpointer
	sn        []int
	piggyback int64 // bytes piggybacked so far
	indexBox
}

func newIndexed(name string, n int, ckpt Checkpointer) indexed {
	return indexed{name: name, ckpt: ckpt, sn: make([]int, n)}
}

// Name implements Protocol.
func (x *indexed) Name() string { return x.name }

// Init implements Protocol: the first checkpoint of every host gets
// sequence number 0.
func (x *indexed) Init() {
	for i := range x.sn {
		x.sn[i] = 0
		x.ckpt(mobile.HostID(i), 0, storage.Initial)
	}
}

// OnSend implements Protocol: the current sequence number rides on the
// message.
func (x *indexed) OnSend(from, to mobile.HostID) any {
	x.piggyback += intSize
	return x.box(x.sn[from])
}

// OnDeliver implements Protocol with the forcing rule alone.
func (x *indexed) OnDeliver(h, from mobile.HostID, pb any) {
	x.force(h, int(pb.(IndexPiggyback)))
}

// force applies the forcing rule: a message from the future (m.sn > sn_i)
// forces a checkpoint with the sender's index, taken before the message
// is processed so the message cannot become orphan with respect to the
// recovery line of that index.
func (x *indexed) force(h mobile.HostID, msn int) {
	if msn > x.sn[h] {
		x.sn[h] = msn
		x.ckpt(h, msn, storage.Forced)
	}
}

// bump takes a basic checkpoint with an incremented index.
func (x *indexed) bump(h mobile.HostID) {
	x.sn[h]++
	x.ckpt(h, x.sn[h], storage.Basic)
}

// OnCellSwitch implements Protocol: basic checkpoint with incremented
// index (QBC replaces this rule with its own).
func (x *indexed) OnCellSwitch(h mobile.HostID, newMSS mobile.MSSID) { x.bump(h) }

// OnDisconnect implements Protocol: same rule as a cell switch.
func (x *indexed) OnDisconnect(h mobile.HostID) { x.bump(h) }

// OnReconnect implements Protocol (no action).
func (x *indexed) OnReconnect(h mobile.HostID, at mobile.MSSID) {}

// PiggybackBytes implements Protocol.
func (x *indexed) PiggybackBytes() int64 { return x.piggyback }

// OnJoin implements Protocol. An index protocol admits a host for free:
// it starts at index 0 with its initial checkpoint, and the first message
// carrying a higher index forces it into the current recovery line — the
// scalability property §4.2 highlights ("the BCS protocol scales well
// with respect to the number of hosts").
func (x *indexed) OnJoin(h mobile.HostID) int64 {
	if int(h) != len(x.sn) {
		panic("protocol: " + x.name + " join with non-dense host id")
	}
	x.sn = append(x.sn, 0)
	x.ckpt(h, 0, storage.Initial)
	return 0
}

// SequenceNumber returns host h's current index (for tests and tracing).
func (x *indexed) SequenceNumber(h mobile.HostID) int { return x.sn[h] }

// BCS is the index-based protocol of Briatico, Ciuffoletti and Simoncini
// (§4.2): the index core as it stands. Checkpoints with the same sequence
// number form a recovery line.
type BCS struct{ indexed }

// NewBCS creates a BCS instance for n hosts.
func NewBCS(n int, ckpt Checkpointer) *BCS {
	return &BCS{newIndexed("BCS", n, ckpt)}
}
