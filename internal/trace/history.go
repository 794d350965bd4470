package trace

import (
	"fmt"
	"slices"

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
type History struct {
	hosts, stations int // initial topology: host i starts at station i mod stations
	n               int // host count after the joins recorded so far

	// One entry per row.
	kind     []rowKind
	host     []int32    // the acting host: sender, receiver, mover, joiner
	peer     []int32    // the other end of a send (receiver) or delivery (sender); -1 otherwise
	msg      []uint64   // the message id of a send or delivery; 0 otherwise
	from, to []int32    // stations: a hand-off has both, a disconnection only from, a reconnection and a join only to; -1 when absent
	at       []des.Time // the world's clock

	sendRow   []int32 // message ordinal -> its send row
	delivered []bool  // message ordinal -> delivered yet
	delivRow  []int32 // delivery ordinal -> its row
	delivMsg  []int32 // delivery ordinal -> message ordinal
}

// NewHistory returns an empty history of hosts hosts placed on stations
// stations (host i at station i mod stations).
func NewHistory(hosts, stations int) *History {
	return &History{hosts: hosts, stations: stations, n: hosts}
}

// Len returns the number of rows.
func (h *History) Len() int { return len(h.kind) }

func (h *History) add(k rowKind, host, peer mobile.HostID, msg uint64, from, to mobile.MSSID, at des.Time) {
	h.kind = append(h.kind, k)
	h.host = append(h.host, int32(host))
	h.peer = append(h.peer, int32(peer))
	h.msg = append(h.msg, msg)
	h.from = append(h.from, int32(from))
	h.to = append(h.to, int32(to))
	h.at = append(h.at, at)
}

// Send records message id leaving host from toward host to, and returns
// the message's ordinal: the number of messages sent before it.
func (h *History) Send(from, to mobile.HostID, id uint64, at des.Time) int32 {
	ord := int32(len(h.sendRow))
	h.sendRow = append(h.sendRow, int32(len(h.kind)))
	h.delivered = append(h.delivered, false)
	h.add(rowSend, from, to, id, mobile.NoMSS, mobile.NoMSS, at)
	return ord
}

// Deliver records the delivery of message id, the one Send numbered ord.
// A message delivered twice, or never sent under that ordinal, panics: the
// world delivered what it never sent, a harness bug.
func (h *History) Deliver(ord int32, id uint64, at des.Time) {
	if ord < 0 || int(ord) >= len(h.sendRow) || h.delivered[ord] || h.msg[h.sendRow[ord]] != id {
		panic(fmt.Sprintf("trace: delivery of message %d as ordinal %d, which is unsent, another message or delivered", id, ord))
	}
	h.delivered[ord] = true
	s := h.sendRow[ord]
	h.delivRow = append(h.delivRow, int32(len(h.kind)))
	h.delivMsg = append(h.delivMsg, ord)
	h.add(rowDeliver, mobile.HostID(h.peer[s]), mobile.HostID(h.host[s]), h.msg[s], mobile.NoMSS, mobile.NoMSS, at)
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
func (h *History) Kind(i int) string        { return h.kind[i].String() }
func (h *History) Host(i int) mobile.HostID { return mobile.HostID(h.host[i]) }
func (h *History) Peer(i int) mobile.HostID { return mobile.HostID(h.peer[i]) }
func (h *History) Msg(i int) uint64         { return h.msg[i] }
func (h *History) At(i int) des.Time        { return h.at[i] }

// InFlight returns, in ascending order, the ids of the messages sent and
// never delivered (still traveling, or parked at a station for a host
// that never came back). They can never be orphans, so no Trace lists
// them among its events.
func (h *History) InFlight() []uint64 {
	var ids []uint64
	for ord, done := range h.delivered {
		if !done {
			ids = append(ids, h.msg[h.sendRow[ord]])
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
	if len(h.kind) > 0 {
		s.Events = make([]ScheduleEvent, len(h.kind))
	}
	for i := range s.Events {
		s.Events[i] = ScheduleEvent{
			Seq: uint64(i), Tick: uint64(i) + 1, Kind: h.kind[i].String(),
			Host: int(h.host[i]), Peer: int(h.peer[i]), Msg: h.msg[i], From: int(h.from[i]), To: int(h.to[i]),
		}
	}
	return s
}
