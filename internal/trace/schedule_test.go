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

// smallEvents are a world's events on 3 hosts and 2 stations, every kind
// among them — the clocked ones of slot 0 — as a world hands them to its
// protocol side: at ticks 1, 2, ..., a message's flow its id.
func smallEvents() []Event {
	return []Event{
		{Kind: Send, At: 1, Host: 0, Peer: 1, Msg: 1},
		{Kind: Deliver, At: 2, Host: 1, Peer: 0, Msg: 1, Arg: 0},
		{Kind: Handoff, At: 3, Host: 0, Arg: 1},
		{Kind: Disconnect, At: 4, Host: 2},
		{Kind: Send, At: 5, Host: 1, Peer: 2, Msg: 2}, // parked: 2 is disconnected
		{Kind: Reconnect, At: 6, Host: 2, Arg: 0},
		{Kind: Join, At: 7, Host: 3, Arg: 1},
		{Kind: Send, At: 8, Host: 3, Peer: 0, Msg: 3},
		{Kind: Deliver, At: 9, Host: 0, Peer: 3, Msg: 3, Arg: 2},
		{Kind: Round, At: 10, Host: -1},
		{Kind: Marker, At: 11, Host: 1},
		{Kind: Tick, At: 12, Host: 3},
	}
}

// small builds a valid 3-host/2-station schedule exercising every kind.
func small() *Schedule {
	h := NewHistory(3, 2)
	for _, ev := range smallEvents() {
		h.Append(ev)
	}
	return h.Schedule(0, "QBC", 7)
}

// TestEventsRoundTripThroughSchedule: a world's events go into a History,
// out through its schedule's JSON and back in through the replay's import
// unchanged — every kind, a join and a send left in flight among them —
// and Row reads each one back as it went in. Of a history two slots
// share, each slot's export keeps every row but the other slot's clocked
// ones, at their own ticks, and imports them as slot 0's.
func TestEventsRoundTripThroughSchedule(t *testing.T) {
	evs := smallEvents()
	h := NewHistory(3, 2)
	sends := int32(0)
	for i, ev := range evs {
		ord := h.Append(ev)
		if ev.Kind == Send {
			if ord != sends {
				t.Fatalf("send %d numbered %d", sends, ord)
			}
			sends++
		}
		if got := h.Row(i); got != ev {
			t.Fatalf("row %d reads %+v, appended %+v", i, got, ev)
		}
	}
	b, err := json.Marshal(h.Schedule(0, "QBC", 7))
	if err != nil {
		t.Fatal(err)
	}
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Import(); !slices.Equal(got, evs) {
		t.Fatalf("imported\n %+v\nwant\n %+v", got, evs)
	}
	seen := map[Kind]bool{}
	for _, ev := range evs {
		seen[ev.Kind] = true
	}
	for k := Send; k <= Round; k++ {
		if !seen[k] {
			t.Errorf("no %v among the events", k)
		}
	}
	if !slices.Equal(s.InFlight, []uint64{2}) {
		t.Fatalf("in flight %v, want [2]", s.InFlight)
	}

	evs = append(evs, Event{Kind: Tick, At: 13, Host: 2, Arg: 1}, Event{Kind: Round, At: 14, Host: -1, Arg: 1},
		Event{Kind: Marker, At: 15, Host: 0, Arg: 1})
	two := NewHistory(3, 2)
	for _, ev := range evs {
		two.Append(ev)
	}
	for slot := range 2 {
		var want []Event
		for _, ev := range evs {
			if ev.Kind.Clocked() {
				if int(ev.Arg) != slot {
					continue
				}
				ev.Arg = 0
			}
			want = append(want, ev)
		}
		s := two.Schedule(slot, "CL", 7)
		if err := s.Validate(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if got := s.Import(); !slices.Equal(got, want) {
			t.Fatalf("slot %d imported\n %+v\nwant\n %+v", slot, got, want)
		}
	}
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
			s.Events[4] = ScheduleEvent{Seq: 4, Tick: 5, Kind: "send", Host: 2, Peer: 0, Msg: 2, From: -1, To: -1}
		}},
		{"reconnect while connected", func(s *Schedule) { s.Events[5].Host = 1; s.Events[5].To = 1 }},
		{"reconnect at bad station", func(s *Schedule) { s.Events[5].To = 7 }},
		{"join with wrong id", func(s *Schedule) { s.Events[6].Host = 5 }},
		{"join at bad station", func(s *Schedule) { s.Events[6].To = 7 }},
		{"unknown kind", func(s *Schedule) { s.Events[0].Kind = "teleport" }},
		{"round at a host", func(s *Schedule) { s.Events[9].Host = 0 }},
		{"marker out of range", func(s *Schedule) { s.Events[10].Host = 9 }},
		{"tick out of range", func(s *Schedule) { s.Events[11].Host = -1 }},
		{"marker while disconnected", func(s *Schedule) {
			s.Events[5] = ScheduleEvent{Seq: 5, Tick: 6, Kind: "marker", Host: 2, Peer: -1, From: -1, To: -1}
		}},
		{"tick while disconnected", func(s *Schedule) {
			s.Events[5] = ScheduleEvent{Seq: 5, Tick: 6, Kind: "tick", Host: 2, Peer: -1, From: -1, To: -1}
		}},
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
	h.Append(Event{Kind: Disconnect, At: 1, Host: 0})
	h.Append(Event{Kind: Disconnect, At: 2, Host: 0})
	if err := h.Schedule(0, "BCS", 1).Validate(); err == nil {
		t.Fatal("double disconnect accepted")
	}
}

// Validating costs what the event list costs, not what the file says its
// host count is: per-host tables sized by the header let a one-line
// hostile file ask for gigabytes (found by the schedule-import fuzzer).
func TestScheduleValidateCostFollowsEvents(t *testing.T) {
	const hosts = math.MaxInt32
	h := NewHistory(hosts, 3)
	const last = hosts - 1 // at station 0
	m := h.Append(Event{Kind: Send, At: 1, Host: last, Peer: 0, Msg: 1})
	h.Append(Event{Kind: Handoff, At: 2, Host: last, Arg: 1})
	h.Append(Event{Kind: Disconnect, At: 3, Host: last})
	h.Append(Event{Kind: Reconnect, At: 4, Host: last, Arg: 1})
	h.Append(Event{Kind: Join, At: 5, Host: hosts, Arg: 2})
	h.Append(Event{Kind: Deliver, At: 6, Host: 0, Peer: last, Msg: 1, Arg: m})
	s := h.Schedule(0, "BCS", 1)
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
