package trace

import (
	"testing"
)

func TestMobilityRecordAndCounts(t *testing.T) {
	h := NewHistory(3, 3)
	h.Handoff(0, 0, 1, 5)
	h.Disconnect(1, 2, 6)
	h.Reconnect(1, 2, 7)
	h.Handoff(2, 1, 0, 8)
	evs := h.Schedule("BCS", 0).Events
	counts := map[string]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
	}
	if counts[SchedHandoff] != 2 || counts[SchedDisconnect] != 1 || counts[SchedReconnect] != 1 || len(counts) != 3 {
		t.Fatalf("counts = %v, want 2 hand-offs, 1 disconnection, 1 reconnection", counts)
	}
	if evs[0] != (ScheduleEvent{Seq: 0, Tick: 1, Kind: SchedHandoff, Host: 0, Peer: -1, From: 0, To: 1}) {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].From != 2 || evs[1].To != -1 {
		t.Fatalf("a disconnection carries only its station of departure: %+v", evs[1])
	}
	if evs[3].Host != 2 || h.At(3) != 8 {
		t.Fatalf("event 3 = %+v at %v", evs[3], h.At(3))
	}
}

func TestMobilityKindString(t *testing.T) {
	for k, want := range map[rowKind]string{rowSend: SchedSend, rowDeliver: SchedDeliver, rowHandoff: "handoff",
		rowDisconnect: "disconnect", rowReconnect: "reconnect", rowJoin: SchedJoin} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
