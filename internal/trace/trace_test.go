package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	tr := New(3)
	if tr.NumHosts() != 3 {
		t.Fatalf("hosts = %d", tr.NumHosts())
	}
	tr.RecordSend(7, 0, 1, 2, 1.5)
	if tr.InFlight() != 1 || tr.Len() != 0 {
		t.Fatal("send must be in flight")
	}
	tr.RecordDeliver(7, 3, 2.5)
	if tr.InFlight() != 0 || tr.Len() != 1 {
		t.Fatal("deliver must complete the event")
	}
	ev := tr.Events()[0]
	if ev.ID != 7 || ev.From != 0 || ev.To != 1 || ev.SendCount != 2 || ev.RecvCount != 3 {
		t.Fatalf("event %+v", ev)
	}
	if ev.SentAt != 1.5 || ev.DeliveredAt != 2.5 {
		t.Fatalf("timestamps %+v", ev)
	}
}

func TestEventsInDeliveryOrder(t *testing.T) {
	tr := New(2)
	tr.RecordSend(1, 0, 1, 1, 0)
	tr.RecordSend(2, 0, 1, 1, 0.1)
	tr.RecordDeliver(2, 1, 0.2) // out of send order
	tr.RecordDeliver(1, 1, 0.3)
	evs := tr.Events()
	if evs[0].ID != 2 || evs[1].ID != 1 {
		t.Fatalf("order %v %v", evs[0].ID, evs[1].ID)
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

func TestExportImportRoundTrip(t *testing.T) {
	tr := New(3)
	tr.RecordSend(1, 0, 1, 2, 1.5)
	tr.RecordDeliver(1, 3, 2.5)
	tr.RecordSend(2, 2, 0, 1, 3.0)
	tr.RecordDeliver(2, 1, 3.5)
	tr.RecordSend(3, 0, 2, 4, 4.0) // still in flight: not exported

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumHosts() != 3 || got.Len() != 2 || got.InFlight() != 0 {
		t.Fatalf("imported %d hosts, %d events, %d in flight", got.NumHosts(), got.Len(), got.InFlight())
	}
	for i, ev := range got.Events() {
		want := tr.Events()[i]
		if ev != want {
			t.Fatalf("event %d: %+v != %+v", i, ev, want)
		}
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := Import(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := Import(strings.NewReader(`{"num_hosts":0}`)); err == nil {
		t.Fatal("zero hosts must fail")
	}
	if _, err := Import(strings.NewReader(`{"num_hosts":2,"events":[{"from":5,"to":0,"send_count":1,"recv_count":1}]}`)); err == nil {
		t.Fatal("out-of-range host must fail")
	}
	if _, err := Import(strings.NewReader(`{"num_hosts":2,"events":[{"from":1,"to":0,"send_count":0,"recv_count":1}]}`)); err == nil {
		t.Fatal("pre-initial event must fail")
	}
	if _, err := Import(strings.NewReader(`{"num_hosts":2,"events":[{"id":1,"from":1,"to":0,"send_count":1,"recv_count":3},{"id":2,"from":1,"to":0,"send_count":1,"recv_count":2}]}`)); err == nil {
		t.Fatal("a receiver whose checkpoint count falls must fail")
	}
}
