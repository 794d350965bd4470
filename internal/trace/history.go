package trace

import (
	"fmt"
	"slices"

	"mobickpt/internal/column"
	"mobickpt/internal/des"
)

// History is the record of one run: one row per event (every Kind), in
// the order the world executed them, whatever the number of protocols
// riding the run. Taking a checkpoint does not perturb the application
// (§5.1), so all but the clocked rows, which name their slot, are the same
// for every protocol; what differs per protocol beyond that is two counts
// per message, which each protocol's Trace (View) keeps beside it.
//
// A row is the Event the world appended (Append), kept as one column per
// field, and the message tables name rows by position. The world assigns
// the message ids and keeps the ordinal a send's Append returns with the
// message until its delivery. Every column is a column.Column: recording
// never copies one, so a history allocates about the 29 bytes per row and
// 17 per message it keeps.
type History struct {
	hosts, stations int // initial topology: host i starts at station i mod stations
	n               int // host count after the joins recorded so far

	// One entry per row: the fields of its Event.
	kind column.Column[Kind]
	host column.Column[int32]
	peer column.Column[int32]
	msg  column.Column[uint64]
	arg  column.Column[int32]
	at   column.Column[des.Time]

	sendRow   column.Column[int32] // message ordinal -> its send row
	delivered column.Column[bool]  // message ordinal -> delivered yet
	delivRow  column.Column[int32] // delivery ordinal -> its row
	delivMsg  column.Column[int32] // delivery ordinal -> message ordinal
	delivTo   column.Column[int32] // delivery ordinal -> its receiver, the row field a recovery's sweep reads
}

// NewHistory returns an empty history of hosts hosts placed on stations
// stations (host i at station i mod stations).
func NewHistory(hosts, stations int) *History {
	return &History{hosts: hosts, stations: stations, n: hosts}
}

// Len returns the number of rows.
func (h *History) Len() int { return h.kind.Len() }

// Append records ev as the history's next row and returns, for a send,
// the message's ordinal (the number of messages sent before it), which
// the world hands back in the delivery's Arg; -1 for any other kind. A
// delivery that names an unsent or delivered ordinal, another message or
// other hosts than its send, a join of any host but the next id, and a
// kind that is none panic: the world recorded what it never did, a
// harness bug.
func (h *History) Append(ev Event) int32 {
	ord := int32(-1)
	switch ev.Kind {
	case Send:
		ord = int32(h.sendRow.Len())
		h.sendRow.Append(int32(h.Len()))
		h.delivered.Append(false)
	case Deliver:
		o, s := int(ev.Arg), -1 // s: the send row
		if o >= 0 && o < h.sendRow.Len() && !h.delivered.At(o) {
			s = int(h.sendRow.At(o))
		}
		if s < 0 || h.msg.At(s) != ev.Msg || h.host.At(s) != ev.Peer || h.peer.At(s) != ev.Host {
			panic(fmt.Sprintf("trace: delivery of message %d from host %d to host %d as ordinal %d, which is unsent, another message or delivered",
				ev.Msg, ev.Peer, ev.Host, o))
		}
		h.delivered.Set(o, true)
		h.delivRow.Append(int32(h.Len()))
		h.delivMsg.Append(ev.Arg)
		h.delivTo.Append(ev.Host)
	case Join:
		if int(ev.Host) != h.n {
			panic(fmt.Sprintf("trace: host %d joins, the next id is %d", ev.Host, h.n))
		}
		h.n++
	case Handoff, Disconnect, Reconnect, Marker, Tick, Round:
	default:
		panic(fmt.Sprintf("trace: a %v event has no history row", ev.Kind))
	}
	h.kind.Append(ev.Kind)
	h.host.Append(ev.Host)
	h.peer.Append(ev.Peer)
	h.msg.Append(ev.Msg)
	h.arg.Append(ev.Arg)
	h.at.Append(ev.At)
	return ord
}

// Row returns row i as the Event it recorded.
func (h *History) Row(i int) Event {
	return Event{At: h.at.At(i), Msg: h.msg.At(i), Host: h.host.At(i), Peer: h.peer.At(i), Arg: h.arg.At(i), Kind: h.kind.At(i)}
}

// Topology returns the initial topology: hosts hosts, host i at station
// i mod stations.
func (h *History) Topology() (hosts, stations int) { return h.hosts, h.stations }

// InFlight returns, in ascending order, the ids of the messages sent and
// never delivered (still traveling, or parked at a station for a host
// that never came back). They can never be orphans, so no Trace lists
// them among its events.
func (h *History) InFlight() []uint64 {
	var ids []uint64
	for ord := range h.delivered.Len() {
		if !h.delivered.At(ord) {
			ids = append(ids, h.msg.At(int(h.sendRow.At(ord))))
		}
	}
	slices.Sort(ids)
	return ids
}

// Schedule exports the history as the schedule a replay runs for the
// protocol of slot slot: every row but the other slots' clocked ones, row
// i at tick i+1, numbered densely, so the export is the same function of
// the rows in every world (the live cluster's own tick is already position
// + 1). The station a hand-off or disconnection leaves is where the moves
// before it left the host, as Validate reads it.
func (h *History) Schedule(slot int, protocol string, seed uint64) *Schedule {
	s := &Schedule{Hosts: h.hosts, Stations: h.stations, Protocol: protocol, Seed: seed, InFlight: h.InFlight()}
	where := placement{h.stations, make(map[int]int)}
	for i := range h.Len() {
		ev := h.Row(i)
		if ev.Kind.Clocked() && int(ev.Arg) != slot {
			continue
		}
		se := ScheduleEvent{Seq: uint64(len(s.Events)), Tick: uint64(i) + 1, Kind: ev.Kind.String(), Host: int(ev.Host), Peer: -1, From: -1, To: -1}
		switch ev.Kind {
		case Send, Deliver:
			se.Peer, se.Msg = int(ev.Peer), ev.Msg
		case Handoff:
			se.From, se.To = where.of(se.Host), int(ev.Arg)
			where.moved[se.Host] = se.To
		case Disconnect:
			se.From = where.of(se.Host)
		case Reconnect, Join:
			se.To = int(ev.Arg)
			where.moved[se.Host] = se.To
		}
		s.Events = append(s.Events, se)
	}
	return s
}
