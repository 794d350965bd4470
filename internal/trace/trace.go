// Package trace records the communication history of an execution in the
// form the recovery analysis needs: for every delivered message, the
// number of checkpoints its sender had taken at send time and its
// receiver had taken at delivery time (after any forced checkpoint the
// delivery itself induced).
//
// Those two counters position each message relative to every checkpoint
// pair, which is exactly the orphan-message relation of §3: a message m
// from h_i to h_j is orphan with respect to (C_i,x, C_j,y) iff its send
// occurred after C_i,x and its receive before C_j,y. Because different
// protocols take different checkpoints on the same execution, the
// experiment layer keeps one Trace per protocol.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

// MessageEvent is one delivered application message, positioned against
// the checkpoint chains of its two endpoints.
type MessageEvent struct {
	ID       uint64
	From, To mobile.HostID

	// SendCount is the number of checkpoints (including the initial one)
	// the sender had taken when it sent the message. The send is undone
	// by restoring a checkpoint with ordinal x iff SendCount > x.
	SendCount int
	// RecvCount is the number of checkpoints the receiver had taken when
	// the message was delivered to the application, measured after any
	// forced checkpoint triggered by this delivery. The receive is kept
	// by restoring ordinal x iff RecvCount <= x.
	RecvCount int

	SentAt      des.Time
	DeliveredAt des.Time
}

// MobilityKind classifies a recorded mobility event.
type MobilityKind int

const (
	// Handoff is a completed cell switch (checkpoint and message-log
	// transfer follow the host to the new station).
	Handoff MobilityKind = iota
	// Disconnect is a voluntary disconnection.
	Disconnect
	// Reconnect is a reconnection after a disconnection.
	Reconnect
)

func (k MobilityKind) String() string {
	switch k {
	case Handoff:
		return "handoff"
	case Disconnect:
		return "disconnect"
	case Reconnect:
		return "reconnect"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(k))
	}
}

// MobilityEvent is one hand-off, disconnection or reconnection. From/To
// are stations: a hand-off carries both, a disconnection only From, a
// reconnection only To (the absent side is mobile.NoMSS).
type MobilityEvent struct {
	Host     mobile.HostID
	Kind     MobilityKind
	From, To mobile.MSSID
	At       des.Time
}

// Trace accumulates message events for one protocol over one execution.
type Trace struct {
	numHosts int
	events   []MessageEvent
	mobility []MobilityEvent
	open     map[uint64]MessageEvent

	// index is derived from events and numHosts on demand (Index); the
	// recording methods never touch it.
	indexMu sync.Mutex
	index   *Index
}

// New returns an empty trace for n hosts.
func New(n int) *Trace {
	return &Trace{numHosts: n, open: make(map[uint64]MessageEvent)}
}

// NumHosts returns the current host count (it grows when hosts join).
func (t *Trace) NumHosts() int { return t.numHosts }

// AddHost grows the host count by one (dynamic membership).
func (t *Trace) AddHost() { t.numHosts++ }

// RecordSend notes that message id left host from (which had taken
// sendCount checkpoints) toward host to.
func (t *Trace) RecordSend(id uint64, from, to mobile.HostID, sendCount int, at des.Time) {
	if _, dup := t.open[id]; dup {
		panic(fmt.Sprintf("trace: duplicate send of message %d", id))
	}
	t.open[id] = MessageEvent{ID: id, From: from, To: to, SendCount: sendCount, SentAt: at}
}

// RecordDeliver completes message id with the receiver-side position and
// moves it into the event log. Delivering an unknown id panics: it means
// the environment delivered a message it never sent, a harness bug.
func (t *Trace) RecordDeliver(id uint64, recvCount int, at des.Time) {
	ev, ok := t.open[id]
	if !ok {
		panic(fmt.Sprintf("trace: delivery of unknown message %d", id))
	}
	delete(t.open, id)
	ev.RecvCount = recvCount
	ev.DeliveredAt = at
	t.events = append(t.events, ev)
}

// Events returns the delivered messages in delivery order. The slice is
// owned by the trace; callers must not mutate it.
func (t *Trace) Events() []MessageEvent { return t.events }

// RecordMobility notes a hand-off, disconnection or reconnection of host
// h at time at (from/to per the MobilityEvent conventions).
func (t *Trace) RecordMobility(h mobile.HostID, kind MobilityKind, from, to mobile.MSSID, at des.Time) {
	t.mobility = append(t.mobility, MobilityEvent{Host: h, Kind: kind, From: from, To: to, At: at})
}

// Mobility returns the recorded mobility events in occurrence order. The
// slice is owned by the trace; callers must not mutate it.
func (t *Trace) Mobility() []MobilityEvent { return t.mobility }

// MobilityCounts tallies the recorded mobility events per kind.
func (t *Trace) MobilityCounts() (handoffs, disconnects, reconnects int) {
	for _, ev := range t.mobility {
		switch ev.Kind {
		case Handoff:
			handoffs++
		case Disconnect:
			disconnects++
		case Reconnect:
			reconnects++
		}
	}
	return
}

// InFlight returns the number of messages sent but not yet delivered
// (still traveling, parked at an MSS, or queued in an inbox at the end of
// the run). In-flight messages can never be orphans — their receive
// does not exist — so they are excluded from the event log.
func (t *Trace) InFlight() int { return len(t.open) }

// Open returns the in-flight messages (sent, never delivered — e.g.
// parked at an MSS for a host that disconnected and never reconnected),
// sorted by id. RecvCount and DeliveredAt are zero: the delivery never
// happened. Events() silently excludes these; callers accounting for
// every send (schedule export, replay desync checks) read them here.
func (t *Trace) Open() []MessageEvent {
	evs := make([]MessageEvent, 0, len(t.open))
	for _, ev := range t.open {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].ID < evs[j].ID })
	return evs
}

// Len returns the number of delivered messages.
func (t *Trace) Len() int { return len(t.events) }
