package trace

import (
	"fmt"
	"slices"

	"mobickpt/internal/column"
	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

// rowKind classifies a history row: the six protocol-independent events a
// run is made of. String gives the schedule's name for it (Sched*).
type rowKind uint8

const (
	rowSend rowKind = iota
	rowDeliver
	rowHandoff
	rowDisconnect
	rowReconnect
	rowJoin
)

var kindNames = [...]string{SchedSend, SchedDeliver, SchedHandoff, SchedDisconnect, SchedReconnect, SchedJoin}

func (k rowKind) String() string { return kindNames[k] }

// History is the protocol-independent record of one run: who sent what to
// whom, the deliveries, hand-offs, disconnections, reconnections and joins,
// one row per event in the order the world executed them, whatever the
// number of protocols riding the run. Taking a checkpoint does not perturb
// the application (§5.1), so this part of an execution is the same for
// every protocol; what differs per protocol is two counts per message,
// which each protocol's Trace (View) keeps beside it.
//
// The columns are kept apart (host, peer, message id, stations, clock) and
// the message tables name rows by position. The world assigns the message
// ids and keeps the ordinal Send returns with the message until Deliver.
// Every column is a column.Column: recording never copies one, so a
// history allocates about the 33 bytes per row and 17 per message it
// keeps.
type History struct {
	hosts, stations int // initial topology: host i starts at station i mod stations
	n               int // host count after the joins recorded so far

	// One entry per row.
	kind     column.Column[rowKind]
	host     column.Column[int32]    // the acting host: sender, receiver, mover, joiner
	peer     column.Column[int32]    // the other end of a send (receiver) or delivery (sender); -1 otherwise
	msg      column.Column[uint64]   // the message id of a send or delivery; 0 otherwise
	from, to column.Column[int32]    // stations: a hand-off has both, a disconnection only from, a reconnection and a join only to; -1 when absent
	at       column.Column[des.Time] // the world's clock

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

func (h *History) add(k rowKind, host, peer mobile.HostID, msg uint64, from, to mobile.MSSID, at des.Time) {
	h.kind.Append(k)
	h.host.Append(int32(host))
	h.peer.Append(int32(peer))
	h.msg.Append(msg)
	h.from.Append(int32(from))
	h.to.Append(int32(to))
	h.at.Append(at)
}

// Send records message id leaving host from toward host to, and returns
// the message's ordinal: the number of messages sent before it.
func (h *History) Send(from, to mobile.HostID, id uint64, at des.Time) int32 {
	ord := int32(h.sendRow.Len())
	h.sendRow.Append(int32(h.Len()))
	h.delivered.Append(false)
	h.add(rowSend, from, to, id, mobile.NoMSS, mobile.NoMSS, at)
	return ord
}

// Deliver records the delivery of message id, the one Send numbered ord.
// A message delivered twice, or never sent under that ordinal, panics: the
// world delivered what it never sent, a harness bug.
func (h *History) Deliver(ord int32, id uint64, at des.Time) {
	if ord < 0 || int(ord) >= h.sendRow.Len() || h.delivered.At(int(ord)) || h.msg.At(int(h.sendRow.At(int(ord)))) != id {
		panic(fmt.Sprintf("trace: delivery of message %d as ordinal %d, which is unsent, another message or delivered", id, ord))
	}
	h.delivered.Set(int(ord), true)
	s := int(h.sendRow.At(int(ord)))
	to := h.peer.At(s)
	h.delivRow.Append(int32(h.Len()))
	h.delivMsg.Append(ord)
	h.delivTo.Append(to)
	h.add(rowDeliver, mobile.HostID(to), mobile.HostID(h.host.At(s)), id, mobile.NoMSS, mobile.NoMSS, at)
}

// Handoff records host's move from station from to station to.
func (h *History) Handoff(host mobile.HostID, from, to mobile.MSSID, at des.Time) {
	h.add(rowHandoff, host, -1, 0, from, to, at)
}

// Disconnect records host's disconnection from station from.
func (h *History) Disconnect(host mobile.HostID, from mobile.MSSID, at des.Time) {
	h.add(rowDisconnect, host, -1, 0, from, mobile.NoMSS, at)
}

// Reconnect records host's reconnection at station to.
func (h *History) Reconnect(host mobile.HostID, to mobile.MSSID, at des.Time) {
	h.add(rowReconnect, host, -1, 0, mobile.NoMSS, to, at)
}

// Join records host joining at station to. Ids stay dense: host must be
// the next one.
func (h *History) Join(host mobile.HostID, to mobile.MSSID, at des.Time) {
	if int(host) != h.n {
		panic(fmt.Sprintf("trace: host %d joins, the next id is %d", host, h.n))
	}
	h.n++
	h.add(rowJoin, host, -1, 0, mobile.NoMSS, to, at)
}

// Kind, Host, Peer, Msg and At read row i: its schedule kind (Sched*),
// its acting host, the other end of a send or delivery (-1 otherwise), its
// message id (0 otherwise) and the world's clock. The station columns read
// through the Schedule export.
func (h *History) Kind(i int) string        { return h.kind.At(i).String() }
func (h *History) Host(i int) mobile.HostID { return mobile.HostID(h.host.At(i)) }
func (h *History) Peer(i int) mobile.HostID { return mobile.HostID(h.peer.At(i)) }
func (h *History) Msg(i int) uint64         { return h.msg.At(i) }
func (h *History) At(i int) des.Time        { return h.at.At(i) }

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

// Schedule exports the history as the schedule a replay runs for
// protocol: row i becomes event i at tick i+1, so the export is the same
// function of the rows in every world (the live cluster's own tick is
// already position + 1).
func (h *History) Schedule(protocol string, seed uint64) *Schedule {
	s := &Schedule{Hosts: h.hosts, Stations: h.stations, Protocol: protocol, Seed: seed, InFlight: h.InFlight()}
	if h.Len() > 0 {
		s.Events = make([]ScheduleEvent, h.Len())
	}
	for i := range s.Events {
		s.Events[i] = ScheduleEvent{
			Seq: uint64(i), Tick: uint64(i) + 1, Kind: h.kind.At(i).String(),
			Host: int(h.host.At(i)), Peer: int(h.peer.At(i)), Msg: h.msg.At(i), From: int(h.from.At(i)), To: int(h.to.At(i)),
		}
	}
	return s
}
