package trace

import (
	"slices"
	"strconv"

	"mobickpt/internal/des"
)

// Kind is what an Event is: one of the things the protocols observe of an
// execution (§5.1) — message order, cell switches, disconnections — plus
// joins and the three events the coordinated baselines add: a marker
// round starting, its marker reaching a host, and a timer firing at one.
// The zero Kind is no event.
type Kind uint8

const (
	Send Kind = iota + 1
	Deliver
	Handoff
	Disconnect
	Reconnect
	Join
	Marker
	Tick
	Round
)

// kindName is the one name table: a kind's String, the schedule's JSON
// "kind" field.
var kindName = [...]string{Send: "send", Deliver: "deliver", Handoff: "handoff", Disconnect: "disconnect",
	Reconnect: "reconnect", Join: "join", Marker: "marker", Tick: "tick", Round: "round"}

func (k Kind) String() string {
	if k < Send || int(k) >= len(kindName) {
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindName[k]
}

// Clocked reports whether one protocol's clock drives k (a marker round,
// its marker, a timer tick), so that an event of it is slot Arg's alone.
func (k Kind) Clocked() bool { return k >= Marker && k <= Round }

// ParseKind is String's inverse; false when no kind has that name.
func ParseKind(name string) (Kind, bool) {
	k := Kind(max(slices.Index(kindName[:], name), 0))
	return k, k >= Send
}

// Event is one event of a run, as every world hands it to the protocol
// side and as a History row reads back. What each field means depends on
// the kind; a field the kind does not use is zero:
//
//	Kind        Host      Peer      Msg         Arg
//	Send        sender    receiver  message id  handed in: the message's number (below); in a row, -
//	Deliver     receiver  sender    message id  handed in: the message's number; in a row, the message's ordinal: the number of messages sent before it
//	Handoff     mover     -         -           the station it moves to
//	Disconnect  host      -         -           -
//	Reconnect   host      -         -           the station it reconnects at
//	Join        joiner    -         -           the station it joins at
//	Marker      target    -         -           the slot whose marker round it is
//	Tick        host      -         -           the slot whose timer fires
//	Round       -1        -         -           the slot whose marker round starts
//
// A message's number names its record in the protocol side's table
// (protoside.Side.Apply), which the side replaces: the message id in the
// engine and the live cluster, which count their ids from 0, the send
// ordinal in a replay. At is the world's clock. The station a hand-off
// or disconnection leaves is the host's current one, which whoever reads
// the rows derives (the protocol side, the schedule export). 32 bytes, with no pointer:
// the engine's pipeline ships bare Events.
type Event struct {
	At   des.Time
	Msg  uint64
	Host int32
	Peer int32
	Arg  int32
	Kind Kind
}
