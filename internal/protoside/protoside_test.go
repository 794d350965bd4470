package protoside_test

import (
	"slices"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// world is a scripted two-slot world: BCS and UNC ride one history, on a
// clock that ticks once per event.
type world struct {
	protoside.Side
	tick    des.Time
	station []mobile.MSSID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	const hosts, stations = 3, 2
	w := &world{station: []mobile.MSSID{0, 1, 0}}
	w.Side = protoside.New(2, trace.NewHistory(hosts, stations), nil, nil, func() des.Time { return w.tick })
	mssOf := func(h mobile.HostID) mobile.MSSID { return w.station[h] }
	for i, build := range []func(protocol.Checkpointer) protocol.Protocol{
		func(c protocol.Checkpointer) protocol.Protocol { return protocol.NewBCS(hosts, c) },
		func(c protocol.Checkpointer) protocol.Protocol { return protocol.NewUncoordinated(hosts, c) },
	} {
		slot := protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel()), Trace: w.Hist.View(), Dec: replaycmp.NewLog("", hosts)}
		err := w.InitSlot(i, hosts, slot, true, mssOf, func(c protocol.Checkpointer, _ *storage.Store) (protocol.Protocol, error) {
			return build(c), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Start(hosts)
	return w
}

// next advances the clock for the next event.
func (w *world) next() des.Time {
	w.tick++
	return w.tick
}

// send mirrors a send and returns the message's ordinal and piggybacks.
func (w *world) send(from, to mobile.HostID, id uint64) (int32, []any) {
	w.next()
	pb := make([]any, len(w.Slots))
	return w.OnSend(from, to, id, id, pb), pb
}

// TestSideRecordsOneHistory drives the side through every kind of event —
// with a delivery whose forced checkpoint only one of the two protocols
// takes, and a send that never arrives — and checks what each event left
// in the one history and in each slot.
func TestSideRecordsOneHistory(t *testing.T) {
	w := newWorld(t)

	// Host 0 hands off (a basic checkpoint in both), then sends to 1:
	// BCS forces a checkpoint on 1 at the delivery, UNC does not.
	w.station[0] = 1
	w.OnCellSwitch(w.next(), 0, 0, 1)
	m, pb := w.send(0, 1, 7)
	w.OnDeliver(w.next(), 1, 0, 7, 7, m, pb, w.station[1])
	w.OnDisconnect(w.next(), 2, w.station[2])
	w.station[2] = 1
	w.OnReconnect(w.next(), 2, 1)
	w.station = append(w.station, 0)
	w.OnJoin(w.next(), 3, 0)
	w.send(3, 2, 8) // in flight for good
	const events = 7

	h := w.Hist
	if h.Len() != events {
		t.Fatalf("%d history rows for %d events", h.Len(), events)
	}
	for i := range h.Len() {
		if h.At(i) != des.Time(i+1) {
			t.Fatalf("row %d at %v, recorded during event %d", i, h.At(i), i+1)
		}
	}
	sched := h.Schedule("BCS", 0)
	if sched.FinalHosts() != 4 {
		t.Fatalf("one join made %d hosts, want 4", sched.FinalHosts())
	}
	if !slices.Equal(sched.InFlight, []uint64{8}) {
		t.Fatalf("exported in-flight section %v, want [8]", sched.InFlight)
	}
	for i := range w.Slots {
		s := &w.Slots[i]
		if s.Trace.History() != h || s.Trace.NumHosts() != 4 {
			t.Fatalf("%s: the trace is not a view of the side's history", s.Name)
		}
		if s.Trace.Len() != 1 || s.Trace.Event(0).ID != 7 {
			t.Fatalf("%s: delivered events %d, want message 7 alone", s.Name, s.Trace.Len())
		}
		checkSeqs(t, s, h)
		checkCounts(t, s)
	}
	bcs, unc := w.Slots[0].Trace.Event(0), w.Slots[1].Trace.Event(0)
	if bcs.SendCount != 2 || unc.SendCount != 2 || bcs.RecvCount != 2 || unc.RecvCount != 1 {
		t.Fatalf("counts BCS %d/%d, UNC %d/%d; want 2/2 and 2/1", bcs.SendCount, bcs.RecvCount, unc.SendCount, unc.RecvCount)
	}
	if err := w.FinishChecks(4); err != nil {
		t.Fatal(err)
	}
}

// checkSeqs: every decision-log entry is stamped with the history position
// of the event that caused it (0 for the initial checkpoints).
func checkSeqs(t *testing.T, s *protoside.Slot, h *trace.History) {
	t.Helper()
	rows := h.Schedule(s.Name, 0).Events
	for host, cps := range s.Dec.Checkpoints {
		for _, c := range cps {
			if c.Kind == storage.Initial.String() && host < 3 {
				if c.Seq != 0 {
					t.Errorf("%s host %d: initial checkpoint stamped %d", s.Name, host, c.Seq)
				}
				continue
			}
			if r := rows[c.Seq]; r.Host != host {
				t.Errorf("%s host %d: checkpoint %d stamped %d, a row of host %d (%s)", s.Name, host, c.Ordinal, c.Seq, r.Host, r.Kind)
			}
		}
	}
	for host, ds := range s.Dec.Deliveries {
		for _, d := range ds {
			if r := rows[d.Seq]; r.Kind != trace.SchedDeliver || r.Host != host || r.Msg != d.Msg {
				t.Errorf("%s host %d: delivery of %d stamped %d, row %+v", s.Name, host, d.Msg, d.Seq, r)
			}
		}
	}
}

// checkCounts: a slot's two counts for a message are its own sender's and
// receiver's checkpoints up to the send and the delivery.
func checkCounts(t *testing.T, s *protoside.Slot) {
	t.Helper()
	taken := func(h mobile.HostID, by des.Time) int {
		n := 0
		for _, r := range s.Store.Chain(h) {
			if r.TakenAt <= by {
				n++
			}
		}
		return n
	}
	for i := range s.Trace.Len() {
		ev := s.Trace.Event(i)
		if ev.SendCount != taken(ev.From, ev.SentAt) || ev.RecvCount != taken(ev.To, ev.DeliveredAt) {
			t.Errorf("%s message %d: counts %d/%d, the store has %d/%d", s.Name, ev.ID,
				ev.SendCount, ev.RecvCount, taken(ev.From, ev.SentAt), taken(ev.To, ev.DeliveredAt))
		}
	}
}
