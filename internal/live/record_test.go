package live

import (
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/trace"
)

// Regression for the zero-timestamp bug: every trace event used to be
// recorded with SentAt = DeliveredAt = 0 (and mlog entries with at = 0),
// so the live trace carried no ordering information at all. The logical
// tick must now be threaded through: strictly positive, and a message's
// delivery strictly after its send. Every row of the history — mobility
// included — is stamped with its event's tick, position + 1.
func TestLiveTraceTimestamps(t *testing.T) {
	c := runCluster(t, DefaultConfig(), qbcFactory)
	tr := c.Trace()
	if tr.Len() == 0 {
		t.Fatal("no deliveries")
	}
	for i := range tr.Len() {
		ev := tr.Event(i)
		if ev.SentAt < 1 {
			t.Fatalf("message %d: SentAt = %v, want >= 1 (the zero-timestamp bug)", ev.ID, ev.SentAt)
		}
		if ev.DeliveredAt <= ev.SentAt {
			t.Fatalf("message %d: DeliveredAt %v not after SentAt %v", ev.ID, ev.DeliveredAt, ev.SentAt)
		}
	}
	h := tr.History()
	mobility := 0
	for i, ev := range h.Schedule("QBC", 0).Events {
		if h.At(i) != des.Time(i+1) {
			t.Fatalf("row %d (%s) stamped %v, want tick %d", i, ev.Kind, h.At(i), i+1)
		}
		if ev.Kind == trace.SchedHandoff || ev.Kind == trace.SchedDisconnect || ev.Kind == trace.SchedReconnect {
			mobility++
		}
	}
	if mobility == 0 {
		t.Fatal("no mobility rows in the history")
	}
}

func TestDupFilterWindow(t *testing.T) {
	f := newDupFilter(3)
	for id := uint64(1); id <= 10; id++ {
		if f.Suppress(id) {
			t.Fatalf("fresh id %d suppressed", id)
		}
		if f.Len() > 3 {
			t.Fatalf("filter remembers %d ids, window is 3", f.Len())
		}
	}
	// 8, 9, 10 are in the window; their duplicates are suppressed once
	// and then forgotten.
	for id := uint64(8); id <= 10; id++ {
		if !f.Suppress(id) {
			t.Fatalf("duplicate of remembered id %d not suppressed", id)
		}
		if f.Suppress(id) {
			t.Fatalf("id %d suppressed twice (transport duplicates at most once)", id)
		}
	}
	// 1 was evicted long ago.
	if f.Suppress(1) {
		t.Fatal("evicted id 1 still suppressed")
	}
	if f.Len() > 3 {
		t.Fatalf("filter remembers %d ids, window is 3", f.Len())
	}
}

func TestDupFilterDefaultWindow(t *testing.T) {
	if newDupFilter(0).window != DefaultDupWindow {
		t.Fatal("zero window does not select the default")
	}
}

// Regression for the unbounded-memory bug: the per-host filter used to
// be a map that grew by one entry per delivered message, forever. The
// bounded window must hold even under heavy duplication — and because
// the transport enqueues a duplicate immediately behind its original, a
// single-slot window must still suppress every duplicate (a duplicate
// slipping through would double-deliver and panic the trace).
func TestDupFilterBoundedInCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProbability = 0.5
	cfg.DupWindow = 1
	c := runCluster(t, cfg, bcsFactory)
	if c.Counters().Duplicates == 0 {
		t.Fatal("no duplicates exercised")
	}
	for h, f := range c.seen {
		if f.Len() > 1 {
			t.Fatalf("host %d remembers %d ids, window is 1", h, f.Len())
		}
	}
	if int64(c.Trace().Len()) != c.Counters().Delivered {
		t.Fatalf("trace %d != delivered %d", c.Trace().Len(), c.Counters().Delivered)
	}
}

// A recorded run must produce a valid schedule whose event tallies match
// the cluster's own counters, and a decision log mirroring the stores.
func TestRecordedScheduleConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Record = true
	cfg.Joins = 2
	c := runCluster(t, cfg, qbcFactory)
	sched := c.Schedule()
	if sched == nil {
		t.Fatal("Record set but no schedule")
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	var sends, delivers, handoffs, disc, rec, joins int64
	for _, ev := range sched.Events {
		switch ev.Kind {
		case trace.SchedSend:
			sends++
		case trace.SchedDeliver:
			delivers++
		case trace.SchedHandoff:
			handoffs++
		case trace.SchedDisconnect:
			disc++
		case trace.SchedReconnect:
			rec++
		case trace.SchedJoin:
			joins++
		}
	}
	got := c.Counters()
	if sends != got.Sent || delivers != got.Delivered {
		t.Fatalf("schedule has %d sends/%d delivers, counters say %d/%d", sends, delivers, got.Sent, got.Delivered)
	}
	if handoffs != got.Switches || joins != got.Joined {
		t.Fatalf("schedule has %d handoffs/%d joins, counters say %d/%d", handoffs, joins, got.Switches, got.Joined)
	}
	if disc != got.Disconnect {
		t.Fatalf("schedule has %d disconnects, counters say %d", disc, got.Disconnect)
	}
	if rec < disc {
		t.Fatalf("%d reconnects < %d disconnects (hosts retire connected)", rec, disc)
	}
	if int64(len(sched.InFlight)) != got.Undrained {
		t.Fatalf("schedule leaves %d in flight, counters say %d", len(sched.InFlight), got.Undrained)
	}
	if sched.FinalHosts() != cfg.Hosts+cfg.Joins {
		t.Fatalf("FinalHosts = %d, want %d", sched.FinalHosts(), cfg.Hosts+cfg.Joins)
	}

	dec := c.Decisions()
	if dec.NumHosts() != cfg.Hosts+cfg.Joins {
		t.Fatalf("decision log has %d hosts, want %d", dec.NumHosts(), cfg.Hosts+cfg.Joins)
	}
	for h := 0; h < dec.NumHosts(); h++ {
		if len(dec.Checkpoints[h]) != len(c.Store().Chain(mobile.HostID(h))) {
			t.Fatalf("host %d: %d recorded decisions, %d stored checkpoints",
				h, len(dec.Checkpoints[h]), len(c.Store().Chain(mobile.HostID(h))))
		}
	}
	if len(dec.RecoveryLines) != dec.NumHosts() {
		t.Fatalf("recovery-line matrix has %d rows, want %d", len(dec.RecoveryLines), dec.NumHosts())
	}
}

// Recording off: no schedule, no decision log, no recording overhead.
func TestRecordOffByDefault(t *testing.T) {
	c := runCluster(t, DefaultConfig(), bcsFactory)
	if c.Schedule() != nil || c.Decisions() != nil {
		t.Fatal("recording artifacts present without Config.Record")
	}
}
