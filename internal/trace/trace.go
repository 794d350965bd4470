// Package trace records the communication history of an execution in the
// form the recovery analysis needs: for every delivered message, the
// number of checkpoints its sender had taken at send time and its
// receiver had taken at delivery time (after any forced checkpoint the
// delivery itself induced).
//
// Those two counters position each message relative to every checkpoint
// pair, which is exactly the orphan-message relation of §3: a message m
// from h_i to h_j is orphan with respect to (C_i,x, C_j,y) iff its send
// occurred after C_i,x and its receive before C_j,y. The rest of an
// execution — who sent what to whom and when, and how the hosts moved —
// does not depend on the protocol, so a run records it once, as a
// History, and each protocol's Trace is a view of it plus that protocol's
// two count columns.
package trace

import (
	"fmt"
	"sync"

	"mobickpt/internal/column"
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

// Trace is one protocol's view of a run: the run's History plus the two
// count columns only that protocol determines. Its events are the
// history's deliveries, named by position (delivery order) and read
// through the accessors below.
type Trace struct {
	h *History
	// send[k] is the sender's count when the history's k-th message left
	// it; recv[i] the receiver's after the i-th delivery.
	send, recv column.Column[int32]
	// ids maps the in-flight message ids of a standalone trace (New) to
	// their ordinals; nil for a view, whose world keeps the ordinals.
	ids map[uint64]int32

	// index is derived from the columns on demand (Index); the recording
	// methods never touch it.
	indexMu sync.Mutex
	index   *Index
}

// View returns an empty view of h for one protocol. Whoever appends to h
// appends the view's counts too (CountSend, CountDeliver), once per send
// and per delivery.
func (h *History) View() *Trace { return &Trace{h: h} }

// New returns an empty standalone trace for n hosts: a view of a history
// of its own, recorded through RecordSend and RecordDeliver.
func New(n int) *Trace {
	t := NewHistory(n, 0).View()
	t.ids = make(map[uint64]int32)
	return t
}

// History returns the history the trace is a view of.
func (t *Trace) History() *History { return t.h }

// NumHosts returns the current host count (it grows when hosts join).
func (t *Trace) NumHosts() int { return t.h.n }

// CountSend records the sender's count for the history's newest message.
func (t *Trace) CountSend(sendCount int) { t.send.Append(int32(sendCount)) }

// CountDeliver records the receiver's count for the history's newest
// delivery.
func (t *Trace) CountDeliver(recvCount int) { t.recv.Append(int32(recvCount)) }

// RecordSend notes, in a standalone trace, that message id left host from
// (which had taken sendCount checkpoints) toward host to.
func (t *Trace) RecordSend(id uint64, from, to mobile.HostID, sendCount int, at des.Time) {
	if t.ids == nil {
		panic("trace: RecordSend on a view: its history's writer records the send")
	}
	if _, dup := t.ids[id]; dup {
		panic(fmt.Sprintf("trace: duplicate send of message %d", id))
	}
	t.ids[id] = t.h.Append(Event{Kind: Send, At: at, Host: int32(from), Peer: int32(to), Msg: id})
	t.CountSend(sendCount)
}

// RecordDeliver completes message id of a standalone trace with the
// receiver-side position. Delivering an unknown id panics: it means the
// environment delivered a message it never sent, a harness bug.
func (t *Trace) RecordDeliver(id uint64, recvCount int, at des.Time) {
	ord, ok := t.ids[id]
	if !ok {
		panic(fmt.Sprintf("trace: delivery of unknown message %d", id))
	}
	delete(t.ids, id)
	snd := t.h.Row(int(t.h.sendRow.At(int(ord))))
	t.h.Append(Event{Kind: Deliver, At: at, Host: snd.Peer, Peer: snd.Host, Msg: id, Arg: ord})
	t.CountDeliver(recvCount)
}

// Len returns the number of delivered messages.
func (t *Trace) Len() int { return t.recv.Len() }

// Event returns delivered message i (in delivery order).
func (t *Trace) Event(i int) MessageEvent {
	h := t.h
	r, k := int(h.delivRow.At(i)), int(h.delivMsg.At(i))
	s := int(h.sendRow.At(k))
	return MessageEvent{
		ID: h.msg.At(r), From: mobile.HostID(h.peer.At(r)), To: mobile.HostID(h.host.At(r)),
		SendCount: int(t.send.At(k)), RecvCount: int(t.recv.At(i)),
		SentAt: h.at.At(s), DeliveredAt: h.at.At(r),
	}
}

// SendCount, RecvCount, From, To and DeliveredAt read one field of
// delivered message i: what the recovery analysis's loops read.
func (t *Trace) SendCount(i int) int        { return int(t.send.At(int(t.h.delivMsg.At(i)))) }
func (t *Trace) RecvCount(i int) int        { return int(t.recv.At(i)) }
func (t *Trace) From(i int) mobile.HostID   { return mobile.HostID(t.h.peer.At(t.row(i))) }
func (t *Trace) To(i int) mobile.HostID     { return mobile.HostID(t.h.delivTo.At(i)) }
func (t *Trace) DeliveredAt(i int) des.Time { return t.h.at.At(t.row(i)) }

// row is the history row of delivered message i.
func (t *Trace) row(i int) int { return int(t.h.delivRow.At(i)) }

// Receipts returns the chunk of delivered messages that holds message
// i: their receivers and receive counts side by side, and the position
// of the first. A sweep whose positions mostly ascend, as a recovery's
// do, reads the messages after i there without locating each one.
func (t *Trace) Receipts(i int) (to, recv []int32, lo int) {
	recv, lo = t.recv.ChunkOf(i)
	to, _ = t.h.delivTo.ChunkOf(i)
	return to[:len(recv)], recv, lo
}
