package sim

import (
	"reflect"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/trace"
)

// replaySchedule builds a small hand-crafted history: sends, deliveries,
// a hand-off, and a host that disconnects with a message parked for it
// and never reconnects — the in-flight section must carry that send.
func replaySchedule(protocol string) *trace.Schedule {
	s := trace.NewSchedule(3, 2, protocol, 1)
	s.Record(trace.SchedSend, 1, 0, 1, 1, -1, -1)
	s.Record(trace.SchedDeliver, 2, 1, 0, 1, -1, -1)
	s.Record(trace.SchedHandoff, 3, 1, -1, 0, 1, 0)
	s.Record(trace.SchedSend, 4, 1, 2, 2, -1, -1)
	s.Record(trace.SchedDeliver, 5, 2, 1, 2, -1, -1)
	s.Record(trace.SchedDisconnect, 6, 2, -1, 0, 0, -1)
	s.Record(trace.SchedSend, 7, 0, 2, 3, -1, -1) // parked forever: 2 never returns
	s.Record(trace.SchedSend, 8, 1, 0, 4, -1, -1)
	s.Record(trace.SchedDeliver, 9, 0, 1, 4, -1, -1)
	s.SealInFlight()
	return s
}

func TestReplayValidateRejects(t *testing.T) {
	ok := Config{Schedule: replaySchedule("QBC")}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"corrupt schedule", func(c *Config) { c.Schedule.Events[0].Kind = "teleport" }},
		{"wrong protocol", func(c *Config) { c.Protocols = []ProtocolName{BCS} }},
		{"two protocols", func(c *Config) { c.Protocols = []ProtocolName{QBC, BCS} }},
		{"latency", func(c *Config) { c.CheckpointLatency = 1 }},
		{"snapshots", func(c *Config) { c.SnapshotPeriod = 100 }},
		{"gc", func(c *Config) { c.GCInterval = 10 }},
		{"join times", func(c *Config) { c.JoinTimes = []des.Time{5} }},
		{"probes", func(c *Config) { c.Probes = true }},
		{"lane timeline", func(c *Config) { c.LaneTimeline = obs.NewTimeline() }},
		{"progress", func(c *Config) { c.Progress = func(des.Time, uint64) {} }},
		{"bad log mode", func(c *Config) { c.MessageLog = mlog.Mode(99) }},
		{"negative log batch", func(c *Config) { c.LogFlushBatch = -1 }},
		// A config Validate accepts must be one Run accepts: the schedule's
		// protocol has to be in the registry's Live set.
		{"coordinated schedule", func(c *Config) { c.Schedule = replaySchedule("CL") }},
		{"timer-driven schedule", func(c *Config) { c.Schedule = replaySchedule("MS") }},
	}
	for _, tc := range cases {
		cfg := Config{Schedule: replaySchedule("QBC")}
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: replay config accepted", tc.name)
		}
	}
	// The schedule's own protocol name is accepted explicitly, and so are
	// the instruments the protocol side carries into either world.
	for name, cfg := range map[string]Config{
		"own protocol": {Schedule: replaySchedule("QBC"), Protocols: []ProtocolName{QBC}},
		"metrics":      {Schedule: replaySchedule("QBC"), Metrics: obs.NewRegistry()},
		"timeline":     {Schedule: replaySchedule("QBC"), Timeline: obs.NewTimeline()},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// The rejection names the replayable set.
	err := Config{Schedule: replaySchedule("PS")}.Validate()
	if err == nil || !strings.Contains(err.Error(), "want TP, BCS, QBC or UNC") {
		t.Fatalf("coordinated schedule: err = %v, want the live set named", err)
	}
}

// The same schedule must replay to identical decisions every time —
// the replay engine is deterministic by construction, and this is what
// lets it serve as the oracle side of the differential test.
func TestReplayDeterministic(t *testing.T) {
	for _, proto := range []string{"TP", "BCS", "QBC", "UNC"} {
		a, err := Run(Config{Schedule: replaySchedule(proto), Checks: true})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		b, err := Run(Config{Schedule: replaySchedule(proto), Checks: true})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if d := replaycmp.Compare(a.Decisions, b.Decisions, nil); d != nil {
			t.Fatalf("%s: two replays diverge: %v", proto, d)
		}
		if !reflect.DeepEqual(a.Decisions, b.Decisions) {
			t.Fatalf("%s: decision logs not deeply equal", proto)
		}
	}
}

// Disconnect-at-end: the send parked for the never-reconnecting host
// must stay in flight (excluded from Events, present in Open), exactly
// matching the schedule's explicit in-flight section.
func TestReplayInFlight(t *testing.T) {
	res, err := Run(Config{Schedule: replaySchedule("QBC"), Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Protocols[0]
	if pr.Trace.InFlight() != 1 {
		t.Fatalf("trace has %d in flight, want 1", pr.Trace.InFlight())
	}
	open := pr.Trace.Open()
	if len(open) != 1 || open[0].ID != 3 || open[0].To != 2 {
		t.Fatalf("Open() = %+v, want message 3 to host 2", open)
	}
	if pr.Trace.Len() != 3 {
		t.Fatalf("delivered %d, want 3", pr.Trace.Len())
	}
	// A schedule claiming the parked message was delivered desyncs and
	// must be rejected by validation (in-flight section mismatch).
	s := replaySchedule("QBC")
	s.InFlight = nil
	if _, err := Run(Config{Schedule: s}); err == nil {
		t.Fatal("schedule with understated in-flight section accepted")
	}
}

// Replay with message logging mirrors the live cluster's mlog activity.
func TestReplayMessageLog(t *testing.T) {
	res, err := Run(Config{Schedule: replaySchedule("QBC"), Checks: true, MessageLog: mlog.Pessimistic})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Protocols[0]
	if pr.MLog == nil || pr.Log.Appended != 3 {
		t.Fatalf("mlog recorded %d appends, want 3", pr.Log.Appended)
	}
	if pr.Log.Handoffs != 1 {
		t.Fatalf("mlog recorded %d handoffs, want 1", pr.Log.Handoffs)
	}
}

// Replays with joins: the joiner appears mid-history with its own
// initial checkpoint and can immediately communicate.
func TestReplayJoin(t *testing.T) {
	s := trace.NewSchedule(2, 2, "QBC", 1)
	s.Record(trace.SchedSend, 1, 0, 1, 1, -1, -1)
	s.Record(trace.SchedDeliver, 2, 1, 0, 1, -1, -1)
	s.Record(trace.SchedJoin, 3, 2, -1, 0, -1, 1)
	s.Record(trace.SchedSend, 4, 2, 0, 2, -1, -1)
	s.Record(trace.SchedDeliver, 5, 0, 2, 2, -1, -1)
	s.SealInFlight()
	res, err := Run(Config{Schedule: s, Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalHosts != 3 {
		t.Fatalf("FinalHosts = %d, want 3", res.FinalHosts)
	}
	if got := res.Protocols[0].Initial; got != 3 {
		t.Fatalf("%d initial checkpoints, want 3", got)
	}
	if res.Decisions.NumHosts() != 3 {
		t.Fatalf("decision log has %d hosts, want 3", res.Decisions.NumHosts())
	}
}
