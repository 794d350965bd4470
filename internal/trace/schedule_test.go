package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// small builds a valid 3-host/2-station schedule exercising every kind.
func small() *Schedule {
	h := NewHistory(3, 2)
	h.Deliver(h.Send(0, 1, 1, 0), 1, 0)
	h.Handoff(0, 0, 1, 0)
	h.Disconnect(2, 0, 0)
	h.Send(1, 2, 2, 0) // parked: 2 is disconnected
	h.Reconnect(2, 0, 0)
	h.Join(3, 1, 0)
	h.Deliver(h.Send(3, 0, 3, 0), 3, 0)
	return h.Schedule("QBC", 7)
}

func TestScheduleValidates(t *testing.T) {
	s := small()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.FinalHosts(); got != 4 {
		t.Fatalf("FinalHosts = %d, want 4", got)
	}
	if len(s.InFlight) != 1 || s.InFlight[0] != 2 {
		t.Fatalf("InFlight = %v, want [2]", s.InFlight)
	}
}

// The schedule's JSON form — what a recording bundle carries — decodes
// to the schedule it encodes, every field included.
func TestScheduleRoundTrip(t *testing.T) {
	s := small()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Schedule)
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", s, got)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Encoding is deterministic, and a decoded schedule re-encodes to the
// same bytes.
func TestScheduleExportDeterministic(t *testing.T) {
	s := small()
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same schedule differ")
	}
	var got Schedule
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode+encode is not byte-identical")
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Schedule)
	}{
		{"one host", func(s *Schedule) { s.Hosts = 1 }},
		{"one station", func(s *Schedule) { s.Stations = 1 }},
		{"no protocol", func(s *Schedule) { s.Protocol = "" }},
		{"sparse seq", func(s *Schedule) { s.Events[3].Seq = 9 }},
		{"tick not increasing", func(s *Schedule) { s.Events[1].Tick = 1 }},
		{"host out of range", func(s *Schedule) { s.Events[0].Host = 5 }},
		{"self send", func(s *Schedule) { s.Events[0].Peer = 0 }},
		{"resend", func(s *Schedule) { s.Events[4].Msg = 1 }},
		{"deliver unsent", func(s *Schedule) { s.Events[1].Msg = 42 }},
		{"deliver to wrong host", func(s *Schedule) { s.Events[1].Host = 2; s.Events[1].Peer = 0 }},
		{"handoff from wrong station", func(s *Schedule) { s.Events[2].From = 1; s.Events[2].To = 0 }},
		{"handoff to itself", func(s *Schedule) { s.Events[2].To = 0 }},
		{"send while disconnected", func(s *Schedule) {
			s.Events[4] = ScheduleEvent{Seq: 4, Tick: 5, Kind: SchedSend, Host: 2, Peer: 0, Msg: 2, From: -1, To: -1}
		}},
		{"reconnect while connected", func(s *Schedule) { s.Events[5].Host = 1; s.Events[5].To = 1 }},
		{"reconnect at bad station", func(s *Schedule) { s.Events[5].To = 7 }},
		{"join with wrong id", func(s *Schedule) { s.Events[6].Host = 5 }},
		{"join at bad station", func(s *Schedule) { s.Events[6].To = 7 }},
		{"unknown kind", func(s *Schedule) { s.Events[0].Kind = "teleport" }},
		{"in-flight missing", func(s *Schedule) { s.InFlight = nil }},
		{"in-flight wrong id", func(s *Schedule) { s.InFlight = []uint64{3} }},
	}
	for _, tc := range cases {
		s := small()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt schedule", tc.name)
		}
	}
}

// A double disconnect must be rejected (the live cluster can never
// record one; its presence means the file was edited or corrupted).
func TestScheduleValidateRejectsDoubleDisconnect(t *testing.T) {
	h := NewHistory(2, 2)
	h.Disconnect(0, 0, 1)
	h.Disconnect(0, 0, 2)
	if err := h.Schedule("BCS", 1).Validate(); err == nil {
		t.Fatal("double disconnect accepted")
	}
}

// Validating costs what the event list costs, not what the file says its
// host count is: per-host tables sized by the header let a one-line
// hostile file ask for gigabytes (found by the schedule-import fuzzer).
func TestScheduleValidateCostFollowsEvents(t *testing.T) {
	const hosts = math.MaxInt32
	h := NewHistory(hosts, 3)
	m := h.Send(hosts-1, 0, 1, 1)
	h.Handoff(hosts-1, (hosts-1)%3, (hosts-1)%3+1, 2)
	h.Disconnect(hosts-1, (hosts-1)%3+1, 3)
	h.Reconnect(hosts-1, (hosts-1)%3+1, 4)
	h.Join(hosts, 2, 5)
	h.Deliver(m, 1, 6)
	s := h.Schedule("BCS", 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("validating six events allocated %d bytes", got)
	}
}

// TestTraceOpen: the sends never delivered are the history's in-flight
// set, in id order.
func TestTraceOpen(t *testing.T) {
	tr := New(3)
	tr.RecordSend(5, 0, 1, 1, 10)
	tr.RecordSend(3, 1, 2, 1, 11)
	tr.RecordSend(4, 2, 0, 1, 12)
	tr.RecordDeliver(4, 1, 13)
	if open := tr.History().InFlight(); !slices.Equal(open, []uint64{3, 5}) {
		t.Fatalf("InFlight() = %v, want messages 3 and 5 in id order", open)
	}
	if tr.Len() != 1 {
		t.Fatalf("%d delivered, want 1", tr.Len())
	}

	// Id order, not the order the messages were sent in.
	const n = 64
	tr = New(2)
	for k := 0; k < n; k++ {
		tr.RecordSend(uint64(1+k*37%n), 0, 1, k+1, 10) // 37 is coprime to 64: a fixed shuffle
	}
	open := tr.History().InFlight()
	if len(open) != n {
		t.Fatalf("InFlight() returned %d messages, want %d", len(open), n)
	}
	for k, id := range open {
		if id != uint64(k+1) {
			t.Fatalf("InFlight()[%d] is %d, want %d", k, id, k+1)
		}
	}
}
