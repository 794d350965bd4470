// Package protocol implements the checkpointing protocols compared by the
// paper: the two-phase protocol TP of Acharya–Badrinath, the index-based
// protocols BCS (Briatico–Ciuffoletti–Simoncini) and QBC
// (Quaglia–Baldoni–Ciciani), plus two baselines used in the paper's
// qualitative discussion (§2): a purely uncoordinated protocol and
// coordinated marker-based protocols in the style of Chandy–Lamport and
// Prakash–Singhal.
//
// The seven protocols fall into three families, the grouping the
// invariant checker (internal/check) also uses: TP on its own; the
// index-based BCS, QBC and MS, built on one core (indexed) that holds the
// sequence numbers and the forcing rule; and UNC, CL and PS, built on one
// local core (local) that takes only the basic checkpoints mobility
// demands, CL and PS adding a marker side (marked).
//
// Protocols are written as passive state machines driven by the
// simulation (or by the live runtime): the environment calls OnSend /
// OnDeliver / OnCellSwitch / OnDisconnect / OnReconnect, and the protocol
// reacts by piggybacking control information and by taking checkpoints
// through the Checkpointer callback. This keeps each protocol independent
// of both the DES engine and the goroutine runtime, so one implementation
// serves both execution environments.
package protocol

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// Checkpointer records a checkpoint of host h with the given protocol
// index and kind, returning the stored record. The environment wires it
// to a per-protocol storage.Store (and to trace recording).
type Checkpointer func(h mobile.HostID, index int, kind storage.Kind) *storage.Record

// Protocol is a communication-induced (or baseline) checkpointing
// protocol instance governing all hosts of one computation.
//
// The environment guarantees the calling discipline of the paper's model:
// Init once before any other call; OnSend for host h only while h is
// connected; OnDeliver only for messages previously announced by OnSend;
// OnCellSwitch/OnDisconnect at every hand-off/disconnection (the protocol
// must take its basic checkpoint there); OnReconnect at reconnection;
// OnJoin when a host joins the running computation.
type Protocol interface {
	// Name returns the short protocol name used in tables ("TP", "BCS"...).
	Name() string
	// Init takes the initial checkpoint of every host (index 0).
	Init()
	// OnSend is invoked when host from sends an application message to
	// host to; it returns the control information to piggyback.
	OnSend(from, to mobile.HostID) any
	// OnDeliver is invoked when host h receives an application message
	// from host from carrying piggyback pb (the value OnSend returned).
	OnDeliver(h, from mobile.HostID, pb any)
	// OnCellSwitch is invoked after host h completed a hand-off; newMSS
	// is its new station.
	OnCellSwitch(h mobile.HostID, newMSS mobile.MSSID)
	// OnDisconnect is invoked when host h voluntarily disconnects.
	OnDisconnect(h mobile.HostID)
	// OnReconnect is invoked when host h reconnects at station at.
	OnReconnect(h mobile.HostID, at mobile.MSSID)
	// PiggybackBytes returns the cumulative volume of control information
	// piggybacked on application messages so far (8 bytes per integer).
	PiggybackBytes() int64
	// OnJoin admits host h into the running computation (the paper's §2.1
	// point (f): an open mobile system must add processes "at the minimum
	// cost"). Ids stay dense: h equals the previous host count. It takes
	// h's initial checkpoint and returns the number of control messages
	// the membership change cost — zero for the index-based protocols,
	// O(n) for TP, whose piggybacked vectors must grow on every host.
	OnJoin(h mobile.HostID) (ctrlMessages int64)
}

// intSize is the accounted size of one piggybacked integer, in bytes.
const intSize = 8

// Recycler is implemented by a protocol whose OnSend returns a pooled
// piggyback buffer: once the value has been fully consumed — delivered
// to its receiver and inspected by checkers and tracing — the
// environment MAY hand it back via Recycle for the next OnSend to reuse.
// No protocol in the tree pools piggybacks (TP's are immutable views,
// DESIGN §7) and the engine does not call it; the benchmark's exchange
// loop offers every piggyback back through this interface, which is why
// it is declared.
type Recycler interface {
	Recycle(pb any)
}

// indexBox interns the boxed `any` values of IndexPiggyback. Go only
// pre-boxes integers below 256; checkpoint indices in long runs go far
// beyond that, so returning IndexPiggyback(sn) from OnSend would allocate
// on almost every message. Interning keeps the returned values immutable
// (safe while messages are in flight) and allocation-free in steady
// state: the cache grows to the max index seen, then every send hits it.
type indexBox struct {
	cache []any
}

// box returns the interned boxed value of IndexPiggyback(sn), growing the
// cache to cover sn first.
func (b *indexBox) box(sn int) any {
	for len(b.cache) <= sn {
		b.cache = append(b.cache, IndexPiggyback(len(b.cache)))
	}
	return b.cache[sn]
}

// Initiator is implemented by coordinated protocols that need a periodic
// snapshot trigger driven by the environment's clock (communication-
// induced protocols never need it). The environment calls BeginSnapshot
// every SnapshotPeriod; the protocol returns the hosts to which marker
// control messages must be sent, and the environment invokes OnMarker
// when each marker is delivered.
type Initiator interface {
	BeginSnapshot() []mobile.HostID
	OnMarker(h mobile.HostID)
	// ControlMessages returns the cumulative number of marker/control
	// messages the coordination produced.
	ControlMessages() int64
}
