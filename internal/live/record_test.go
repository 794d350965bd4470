package live

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
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
	for i, ev := range h.Schedule(0, "QBC", 0).Events {
		if at := h.Row(i).At; at != des.Time(i+1) {
			t.Fatalf("row %d (%s) stamped %v, want tick %d", i, ev.Kind, at, i+1)
		}
		if k, _ := trace.ParseKind(ev.Kind); k == trace.Handoff || k == trace.Disconnect || k == trace.Reconnect {
			mobility++
		}
	}
	if mobility == 0 {
		t.Fatal("no mobility rows in the history")
	}
}

// The one-slot rule: a copy adjacent to its original is suppressed once;
// a fresh id in between, or a third copy, is not a duplicate of it.
func TestDupFilterWindow(t *testing.T) {
	var f dupFilter
	for _, step := range []struct {
		id   uint64
		dup  bool
		what string
	}{
		{0, false, "fresh id 0 (packet ids start at 0)"},
		{0, true, "adjacent copy of 0"},
		{0, false, "third copy of 0 (the transport duplicates at most once)"},
		{1, false, "fresh id 1"},
		{2, false, "fresh id 2"},
		{1, false, "copy of 1 behind 2 (not adjacent)"},
		{2, false, "copy of 2 behind 1"},
		{7, false, "fresh id 7"},
		{7, true, "adjacent copy of 7"},
	} {
		if got := f.Suppress(step.id); got != step.dup {
			t.Fatalf("%s: suppressed = %v, want %v", step.what, got, step.dup)
		}
	}
}

// Every host the cluster can have — joiners included — gets a filter,
// and it starts empty.
func TestDupFilterDefaultWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Joins = 2
	c, err := NewCluster(cfg, bcsFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.seen) != cfg.Hosts+cfg.Joins {
		t.Fatalf("%d filters for %d hosts", len(c.seen), cfg.Hosts+cfg.Joins)
	}
	for h, f := range c.seen {
		if f == nil || f.held {
			t.Fatalf("host %d's filter is %+v, want an empty one", h, f)
		}
	}
}

// Regression for the unbounded-memory bug: the per-host filter used to
// be a map that grew by one entry per delivered message, forever. It
// now remembers one id, and because the transport enqueues a duplicate
// immediately behind its original, that must still suppress every
// duplicate under heavy duplication (a duplicate slipping through would
// double-deliver and panic the trace).
func TestDupFilterBoundedInCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProbability = 0.5
	c := recordedCluster(t, cfg, bcsFactory)
	c.Run()
	if c.Counters().Duplicates == 0 {
		t.Fatal("no duplicates exercised")
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
	for _, ev := range sched.Import() {
		switch ev.Kind {
		case trace.Send:
			sends++
		case trace.Deliver:
			delivers++
		case trace.Handoff:
			handoffs++
		case trace.Disconnect:
			disc++
		case trace.Reconnect:
			rec++
		case trace.Join:
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
	c, err := NewCluster(DefaultConfig(), bcsFactory)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if c.Schedule() != nil || c.Decisions() != nil {
		t.Fatal("recording artifacts present without Config.Record")
	}
}

// failedTB is a test that has already failed: it keeps what runCluster
// registers for the end of the test, and what it logs.
type failedTB struct {
	testing.TB
	cleanups []func()
	logs     []string
}

func (f *failedTB) Failed() bool      { return true }
func (f *failedTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *failedTB) Logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}

// A failing live test leaves its run behind: the failure names a bundle
// file and the mhsim flags that replay it, and the file is the run's —
// it imports, and its schedule replays, under the logged discipline, to
// the decision log it carries.
func TestFailingRunLeavesItsBundle(t *testing.T) {
	cfg := loggedConfig(mlog.Optimistic)
	cfg.OpsPerHost = 200
	cfg.Joins = 2
	tb := &failedTB{TB: t}
	c := runCluster(tb, cfg, qbcFactory)
	if _, err := c.Recover(0); err != nil { // what a test does before it fails
		t.Fatal(err)
	}
	for _, fn := range tb.cleanups {
		fn()
	}
	if len(tb.logs) != 1 {
		t.Fatalf("the failed test logged %q, want one line naming the bundle", tb.logs)
	}
	args := strings.Fields(tb.logs[0])
	i := slices.Index(args, "-replay-schedule")
	j := slices.Index(args, "-log")
	if i < 0 || i+1 >= len(args) || j < 0 || j+1 >= len(args) {
		t.Fatalf("%q names no mhsim -replay-schedule <file> -log <mode>", tb.logs[0])
	}
	path := args[i+1]
	defer os.Remove(path)
	mode, err := mlog.ParseMode(args[j+1])
	if err != nil || mode != cfg.LogMode {
		t.Fatalf("the line names -log %s (%v), the run logged %s", args[j+1], err, cfg.LogMode)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replaycmp.ImportBundle(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := replaycmp.Compare(c.Decisions(), b.Live, b.Schedule); d != nil {
		t.Fatalf("the bundle's decision log is not the run's: %v", d)
	}
	res, err := sim.Run(sim.Config{Schedule: b.Schedule, Checks: true, MessageLog: mode})
	if err != nil {
		t.Fatal(err)
	}
	if d := replaycmp.Compare(b.Live, res.Decisions, b.Schedule); d != nil {
		t.Fatalf("the bundle does not replay: %v", d)
	}
}
