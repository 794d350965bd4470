package trace

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// small builds a valid 3-host/2-station schedule exercising every kind.
func small() *Schedule {
	s := NewSchedule(3, 2, "QBC", 7)
	s.Record(SchedSend, 1, 0, 1, 1, -1, -1)
	s.Record(SchedDeliver, 2, 1, 0, 1, -1, -1)
	s.Record(SchedHandoff, 3, 0, -1, 0, 0, 1)
	s.Record(SchedDisconnect, 4, 2, -1, 0, 0, -1)
	s.Record(SchedSend, 5, 1, 2, 2, -1, -1) // parked: 2 is disconnected
	s.Record(SchedReconnect, 6, 2, -1, 0, -1, 0)
	s.Record(SchedJoin, 7, 3, -1, 0, -1, 1)
	s.Record(SchedSend, 8, 3, 0, 3, -1, -1)
	s.Record(SchedDeliver, 9, 0, 3, 3, -1, -1)
	s.SealInFlight()
	return s
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

func TestScheduleRoundTrip(t *testing.T) {
	s := small()
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ImportSchedule(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", s, got)
	}
}

func TestScheduleExportDeterministic(t *testing.T) {
	s := small()
	var a, b bytes.Buffer
	if err := s.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same schedule differ")
	}
	// And a round-tripped schedule re-exports to the same bytes.
	got, err := ImportSchedule(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := got.Export(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("import+export is not byte-identical")
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
		{"reconnect elsewhere", func(s *Schedule) { s.Events[5].To = 1 }},
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
	s := NewSchedule(2, 2, "BCS", 1)
	s.Record(SchedDisconnect, 1, 0, -1, 0, 0, -1)
	s.Record(SchedDisconnect, 2, 0, -1, 0, 0, -1)
	s.SealInFlight()
	if err := s.Validate(); err == nil {
		t.Fatal("double disconnect accepted")
	}
}

// Validating costs what the event list costs, not what the file says its
// host count is: per-host tables sized by the header let a one-line
// hostile file ask for gigabytes (found while writing FuzzImportSchedule).
func TestScheduleValidateCostFollowsEvents(t *testing.T) {
	const hosts = math.MaxInt32
	s := NewSchedule(hosts, 3, "BCS", 1)
	s.Record(SchedSend, 1, hosts-1, 0, 1, -1, -1)
	s.Record(SchedHandoff, 2, hosts-1, -1, 0, (hosts-1)%3, (hosts-1)%3+1)
	s.Record(SchedDisconnect, 3, hosts-1, -1, 0, (hosts-1)%3+1, -1)
	s.Record(SchedReconnect, 4, hosts-1, -1, 0, -1, (hosts-1)%3+1)
	s.Record(SchedJoin, 5, hosts, -1, 0, -1, 2)
	s.Record(SchedDeliver, 6, 0, hosts-1, 1, -1, -1)
	s.SealInFlight()
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

func TestTraceOpen(t *testing.T) {
	tr := New(3)
	tr.RecordSend(5, 0, 1, 1, 10)
	tr.RecordSend(3, 1, 2, 1, 11)
	tr.RecordSend(4, 2, 0, 1, 12)
	tr.RecordDeliver(4, 1, 13)
	open := tr.Open()
	if len(open) != 2 || open[0].ID != 3 || open[1].ID != 5 {
		t.Fatalf("Open() = %+v, want messages 3 and 5 in id order", open)
	}
	if tr.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", tr.InFlight())
	}

	// Id order, not the order the open map iterates in: with 64 in
	// flight a chance order passes once in 64!.
	const n = 64
	tr = New(2)
	for k := 0; k < n; k++ {
		tr.RecordSend(uint64(1+k*37%n), 0, 1, k+1, 10) // 37 is coprime to 64: a fixed shuffle
	}
	if open = tr.Open(); len(open) != n {
		t.Fatalf("Open() returned %d messages, want %d", len(open), n)
	}
	for k, ev := range open {
		if ev.ID != uint64(k+1) {
			t.Fatalf("Open()[%d] has id %d, want %d", k, ev.ID, k+1)
		}
	}
}
