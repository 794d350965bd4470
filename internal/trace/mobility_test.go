package trace

import (
	"testing"
)

func TestMobilityRecordAndCounts(t *testing.T) {
	h := NewHistory(3, 3)
	h.Append(Event{Kind: Handoff, At: 5, Host: 0, Arg: 1})
	h.Append(Event{Kind: Disconnect, At: 6, Host: 1})
	h.Append(Event{Kind: Reconnect, At: 7, Host: 1, Arg: 2})
	h.Append(Event{Kind: Handoff, At: 8, Host: 1, Arg: 0})
	evs := h.Schedule(0, "BCS", 0).Events
	counts := map[string]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
	}
	if counts["handoff"] != 2 || counts["disconnect"] != 1 || counts["reconnect"] != 1 || len(counts) != 3 {
		t.Fatalf("counts = %v, want 2 hand-offs, 1 disconnection, 1 reconnection", counts)
	}
	if evs[0] != (ScheduleEvent{Seq: 0, Tick: 1, Kind: "handoff", Host: 0, Peer: -1, From: 0, To: 1}) {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].From != 1 || evs[1].To != -1 {
		t.Fatalf("a disconnection carries only its station of departure, host 1's first: %+v", evs[1])
	}
	if evs[3].Host != 1 || evs[3].From != 2 || evs[3].To != 0 || h.Row(3).At != 8 {
		t.Fatalf("event 3 = %+v at %v: host 1 leaves the station it reconnected at", evs[3], h.Row(3).At)
	}
}

// TestMobilityKindString: every kind has one name, the schedule's, which
// ParseKind reads back; no other name parses.
func TestMobilityKindString(t *testing.T) {
	want := map[Kind]string{Send: "send", Deliver: "deliver", Handoff: "handoff", Disconnect: "disconnect",
		Reconnect: "reconnect", Join: "join", Marker: "marker", Tick: "tick", Round: "round"}
	for k := Kind(0); k <= Round+1; k++ {
		name, ok := want[k]
		if !ok {
			if got, parsed := ParseKind(k.String()); parsed {
				t.Errorf("%d is no kind, yet its name %q parses as %v", int(k), k.String(), got)
			}
			continue
		}
		if got := k.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(k), got, name)
		}
		if got, ok := ParseKind(name); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	for _, name := range []string{"", "teleport", "Send", "switch"} {
		if k, ok := ParseKind(name); ok {
			t.Errorf("ParseKind(%q) = %v, want no kind", name, k)
		}
	}
}
