package trace

import (
	"slices"
	"testing"

	"mobickpt/internal/des"
)

func TestRecordRoundTrip(t *testing.T) {
	tr := New(3)
	if tr.NumHosts() != 3 {
		t.Fatalf("hosts = %d", tr.NumHosts())
	}
	tr.RecordSend(7, 0, 1, 2, 1.5)
	if len(tr.History().InFlight()) != 1 || tr.Len() != 0 {
		t.Fatal("send must be in flight")
	}
	tr.RecordDeliver(7, 3, 2.5)
	if len(tr.History().InFlight()) != 0 || tr.Len() != 1 {
		t.Fatal("deliver must complete the event")
	}
	ev := tr.Event(0)
	if ev.ID != 7 || ev.From != 0 || ev.To != 1 || ev.SendCount != 2 || ev.RecvCount != 3 {
		t.Fatalf("event %+v", ev)
	}
	if ev.SentAt != 1.5 || ev.DeliveredAt != 2.5 {
		t.Fatalf("timestamps %+v", ev)
	}
	if tr.SendCount(0) != 2 || tr.RecvCount(0) != 3 || tr.From(0) != 0 || tr.To(0) != 1 || tr.DeliveredAt(0) != 2.5 {
		t.Fatal("the column accessors disagree with Event")
	}
}

func TestEventsInDeliveryOrder(t *testing.T) {
	tr := New(2)
	tr.RecordSend(1, 0, 1, 1, 0)
	tr.RecordSend(2, 0, 1, 1, 0.1)
	tr.RecordDeliver(2, 1, 0.2) // out of send order
	tr.RecordDeliver(1, 1, 0.3)
	if tr.Event(0).ID != 2 || tr.Event(1).ID != 1 {
		t.Fatalf("order %v %v", tr.Event(0).ID, tr.Event(1).ID)
	}
}

func TestDuplicateSendPanics(t *testing.T) {
	tr := New(2)
	tr.RecordSend(1, 0, 1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.RecordSend(1, 0, 1, 1, 0)
}

func TestUnknownDeliveryPanics(t *testing.T) {
	tr := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.RecordDeliver(99, 1, 0)
}

// TestViewsShareOneHistory: two protocols' views of one history hold only
// their own counts; the rows are written once, and each view reads its
// message's endpoints and times from them.
func TestViewsShareOneHistory(t *testing.T) {
	h := NewHistory(2, 2)
	a, b := h.View(), h.View()
	m := h.Append(Event{Kind: Send, At: 1, Host: 0, Peer: 1, Msg: 40})
	a.CountSend(1)
	b.CountSend(3)
	h.Append(Event{Kind: Handoff, At: 2, Host: 1, Arg: 0})
	h.Append(Event{Kind: Deliver, At: 3, Host: 1, Peer: 0, Msg: 40, Arg: m})
	a.CountDeliver(2)
	b.CountDeliver(5)
	if h.Len() != 3 {
		t.Fatalf("history has %d rows for 3 events", h.Len())
	}
	ea, eb := a.Event(0), b.Event(0)
	if ea.ID != 40 || eb.ID != 40 || ea.From != 0 || eb.To != 1 || ea.SentAt != 1 || eb.DeliveredAt != 3 {
		t.Fatalf("views read %+v and %+v", ea, eb)
	}
	if ea.SendCount != 1 || ea.RecvCount != 2 || eb.SendCount != 3 || eb.RecvCount != 5 {
		t.Fatalf("views mixed their counts: %+v and %+v", ea, eb)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a view recorded a send of its own")
		}
	}()
	a.RecordSend(41, 0, 1, 1, 4)
}

func TestHistoryJoinGrowsHosts(t *testing.T) {
	tr := New(2)
	tr.History().Append(Event{Kind: Join, At: 5, Host: 2, Arg: 1})
	if tr.NumHosts() != 3 || tr.History().Len() != 1 {
		t.Fatalf("%d hosts, %d rows after one join", tr.NumHosts(), tr.History().Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a join that skips an id was accepted")
		}
	}()
	tr.History().Append(Event{Kind: Join, At: 6, Host: 4})
}

// TestHistoryScheduleExport: the export is the rows in order, at ticks
// position + 1, with the undelivered sends in the in-flight section.
func TestHistoryScheduleExport(t *testing.T) {
	h := NewHistory(3, 2)
	m := h.Append(Event{Kind: Send, At: 0.5, Host: 0, Peer: 1, Msg: 10})
	h.Append(Event{Kind: Send, At: 0.7, Host: 1, Peer: 2, Msg: 11}) // never delivered
	h.Append(Event{Kind: Deliver, At: 0.9, Host: 1, Peer: 0, Msg: 10, Arg: m})
	h.Append(Event{Kind: Disconnect, At: 1.2, Host: 2})
	s := h.Schedule("BCS", 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Hosts != 3 || s.Stations != 2 || s.Protocol != "BCS" || s.Seed != 4 || !slices.Equal(s.InFlight, []uint64{11}) {
		t.Fatalf("header %+v", s)
	}
	want := []ScheduleEvent{
		{Seq: 0, Tick: 1, Kind: "send", Host: 0, Peer: 1, Msg: 10, From: -1, To: -1},
		{Seq: 1, Tick: 2, Kind: "send", Host: 1, Peer: 2, Msg: 11, From: -1, To: -1},
		{Seq: 2, Tick: 3, Kind: "deliver", Host: 1, Peer: 0, Msg: 10, From: -1, To: -1},
		{Seq: 3, Tick: 4, Kind: "disconnect", Host: 2, Peer: -1, Msg: 0, From: 0, To: -1},
	}
	if !slices.Equal(s.Events, want) {
		t.Fatalf("events\n %+v\nwant\n %+v", s.Events, want)
	}
}

// TestHistoryDeliverChecksTheMessage: an ordinal that names another
// message, or one already delivered, a delivery between other hosts than
// its send, and a kind with no row are harness bugs and panic.
func TestHistoryDeliverChecksTheMessage(t *testing.T) {
	to1 := func(h *History, m int32, id uint64, at des.Time) {
		h.Append(Event{Kind: Deliver, At: at, Host: 1, Peer: 0, Msg: id, Arg: m})
	}
	for name, deliver := range map[string]func(h *History, m int32){
		"another message":  func(h *History, m int32) { to1(h, m, 6, 1) },
		"delivered twice":  func(h *History, m int32) { to1(h, m, 5, 1); to1(h, m, 5, 2) },
		"never sent":       func(h *History, m int32) { to1(h, m+1, 5, 1) },
		"another receiver": func(h *History, m int32) { h.Append(Event{Kind: Deliver, At: 1, Host: 0, Peer: 1, Msg: 5, Arg: m}) },
		"a marker":         func(h *History, m int32) { h.Append(Event{Kind: Marker, At: 1, Host: 0}) },
	} {
		h := NewHistory(2, 2)
		m := h.Append(Event{Kind: Send, At: 0, Host: 0, Peer: 1, Msg: 5})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			deliver(h, m)
		}()
	}
}
