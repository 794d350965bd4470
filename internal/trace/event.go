package trace

import (
	"slices"
	"strconv"

	"mobickpt/internal/des"
)

// Kind is what an Event is: one of the things the protocols observe of an
// execution (§5.1) — message order, cell switches, disconnections — plus
// joins and the two events the coordinated baselines add, a marker
// reaching a host and a timer firing at one. The zero Kind is no event.
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
)

// kindName is the one name table: a kind's String, the schedule's JSON
// "kind" field.
var kindName = [...]string{Send: "send", Deliver: "deliver", Handoff: "handoff", Disconnect: "disconnect",
	Reconnect: "reconnect", Join: "join", Marker: "marker", Tick: "tick"}

func (k Kind) String() string {
	if k < Send || int(k) >= len(kindName) {
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindName[k]
}

// ParseKind is String's inverse; false when no kind has that name.
func ParseKind(name string) (Kind, bool) {
	k := Kind(max(slices.Index(kindName[:], name), 0))
	return k, k >= Send
}

// Event is one event of a run, as every world hands it to the protocol
// side and as a History row reads back. What each field means depends on
// the kind; a field the kind does not use is zero:
//
//	Kind        Host      Peer      Msg, Flow           Arg
//	Send        sender    receiver  message id, flow    -
//	Deliver     receiver  sender    message id, flow    the message's ordinal: the number of messages sent before it
//	Handoff     mover     -         -                   the station it moves to
//	Disconnect  host      -         -                   -
//	Reconnect   host      -         -                   the station it reconnects at
//	Join        joiner    -         -                   the station it joins at
//	Marker      target    -         -                   the slot whose marker round it is
//	Tick        host      -         -                   the slot whose timer fires
//
// At is the world's clock. Flow is the timeline's flow id (the engine's
// is per sender, the live cluster's the message id); a history keeps no
// flows, so its rows and the replay's import give a message its id. The
// station a hand-off or disconnection leaves is the host's current one,
// which the protocol side and the schedule export each derive. 40 bytes,
// so the engine's pipeline entry, an Event and a pointer, stays at 48.
type Event struct {
	At   des.Time
	Msg  uint64
	Flow uint64
	Host int32
	Peer int32
	Arg  int32
	Kind Kind
}
