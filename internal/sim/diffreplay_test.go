package sim

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// replaySchedule builds a small hand-crafted history: sends, deliveries,
// a hand-off, and a host that disconnects with a message parked for it
// and never reconnects — the in-flight section must carry that send.
func replaySchedule(protocol string) *trace.Schedule {
	h := trace.NewHistory(3, 2)
	for _, ev := range []trace.Event{
		{Kind: trace.Send, At: 1, Host: 0, Peer: 1, Msg: 1},
		{Kind: trace.Deliver, At: 2, Host: 1, Peer: 0, Msg: 1, Arg: 0},
		{Kind: trace.Handoff, At: 3, Host: 1, Arg: 0},
		{Kind: trace.Send, At: 4, Host: 1, Peer: 2, Msg: 2},
		{Kind: trace.Deliver, At: 5, Host: 2, Peer: 1, Msg: 2, Arg: 1},
		{Kind: trace.Disconnect, At: 6, Host: 2},
		{Kind: trace.Send, At: 7, Host: 0, Peer: 2, Msg: 3}, // parked forever: 2 never returns
		{Kind: trace.Send, At: 8, Host: 1, Peer: 0, Msg: 4},
		{Kind: trace.Deliver, At: 9, Host: 0, Peer: 1, Msg: 4, Arg: 3},
	} {
		h.Append(ev)
	}
	return h.Schedule(0, protocol, 1)
}

// clocked is replaySchedule(protocol) with one more event: a kind row at
// host, its event 9.
func clocked(protocol, kind string, host int) *trace.Schedule {
	s := replaySchedule(protocol)
	s.Events = append(s.Events, trace.ScheduleEvent{Seq: 9, Tick: 10, Kind: kind, Host: host, Peer: -1, From: -1, To: -1})
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
		{"progress", func(c *Config) { c.Progress = func(des.Time, uint64) {} }},
		{"bad log mode", func(c *Config) { c.MessageLog = mlog.Mode(99) }},
		// Fields a replay would silently ignore.
		{"horizon", func(c *Config) { c.Horizon = 5 }},
		{"seed", func(c *Config) { c.Seed = 99 }},
		{"record trace", func(c *Config) { c.RecordTrace = true }},
		{"cost", func(c *Config) { c.Cost.FullState = 123 }},
		{"mobile", func(c *Config) { c.Mobile.NumHosts = 3 }},
		{"workload", func(c *Config) { c.Workload.PComm = 7 }},
		{"progress every", func(c *Config) { c.ProgressEvery = 3 }},
		{"queue", func(c *Config) { c.Queue = des.QueueHeap }},
		{"engine", func(c *Config) { c.Engine = pdes.ModeConservative }},
		{"lanes", func(c *Config) { c.Lanes = 2 }},
		// A config Validate accepts must be one Run accepts: the schedule's
		// protocol has to be registered.
		{"unregistered protocol", func(c *Config) { c.Schedule = replaySchedule("XX") }},
		// TP's dense vectors cost 4n² B: a tiny file must not ask for 1.6 GB.
		{"TP over the cap", func(c *Config) {
			c.Schedule = &trace.Schedule{Hosts: ScaleTPMaxHosts + 1, Stations: 2, Protocol: "TP"}
		}},
	}
	for _, tc := range cases {
		cfg := Config{Schedule: replaySchedule("QBC")}
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: replay config accepted", tc.name)
		}
	}
	// A schedule's protocol must have the clock each marker, round and
	// tick row needs; those rows reach only connected hosts, and a round
	// none. Validate and Run refuse the rest with an error naming the
	// event, never a panic.
	for name, s := range map[string]*trace.Schedule{
		"marker without rounds":         clocked("QBC", "marker", 0),
		"round without rounds":          clocked("MS", "round", -1),
		"tick without a timer":          clocked("CL", "tick", 0),
		"round at a host":               clocked("CL", "round", 1),
		"marker to a disconnected host": clocked("PS", "marker", 2),
		"tick to an unknown host":       clocked("MS", "tick", 3),
	} {
		cfg := Config{Schedule: s, Checks: true}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "event 9") {
			t.Errorf("%s: err = %v, want event 9 named", name, err)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: replay ran", name)
		}
	}
	// A field a replay does not read is refused by name.
	err := Config{Schedule: replaySchedule("QBC"), Cost: storage.CostModel{FullState: 123}}.Validate()
	if err == nil || !strings.Contains(err.Error(), "Config.Cost") {
		t.Fatalf("cost model in a replay: err = %v, want Config.Cost named", err)
	}
	// The schedule's own protocol name is accepted explicitly, and so are
	// the instruments the protocol side carries into either world and the
	// clocked rows of a protocol that has their clock.
	for name, cfg := range map[string]Config{
		"own protocol": {Schedule: replaySchedule("QBC"), Protocols: []ProtocolName{QBC}},
		"metrics":      {Schedule: replaySchedule("QBC"), Metrics: obs.NewRegistry()},
		"timeline":     {Schedule: replaySchedule("QBC"), Timeline: obs.NewTimeline()},
		"round":        {Schedule: clocked("CL", "round", -1)},
		"marker":       {Schedule: clocked("PS", "marker", 1)},
		"tick":         {Schedule: clocked("MS", "tick", 0)},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	tp := Config{Schedule: &trace.Schedule{Hosts: 20000, Stations: 2, Protocol: "TP"}}
	if err := tp.Validate(); err == nil || !strings.Contains(err.Error(), "4n²") {
		t.Fatalf("TP over the cap: err = %v, want the n² vectors named", err)
	}
}

// The same schedule must replay to identical decisions every time —
// the replay engine is deterministic by construction, and this is what
// lets it serve as the oracle side of the differential test.
func TestReplayDeterministic(t *testing.T) {
	for _, proto := range AllProtocols() {
		a, err := Run(Config{Schedule: replaySchedule(string(proto)), Checks: true})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		b, err := Run(Config{Schedule: replaySchedule(string(proto)), Checks: true})
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
// must stay in flight (in the history's in-flight set, among no trace's
// events), exactly matching the schedule's explicit in-flight section.
func TestReplayInFlight(t *testing.T) {
	res, err := Run(Config{Schedule: replaySchedule("QBC"), Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Protocols[0]
	if open := pr.Trace.History().InFlight(); len(open) != 1 || open[0] != 3 {
		t.Fatalf("history leaves %v in flight, want message 3", open)
	}
	if pr.Trace.Len() != 3 {
		t.Fatalf("delivered %d, want 3", pr.Trace.Len())
	}
	for i := range pr.Trace.Len() {
		if pr.Trace.Event(i).ID == 3 {
			t.Fatal("the parked message is among the delivered events")
		}
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
	h := trace.NewHistory(2, 2)
	for _, ev := range []trace.Event{
		{Kind: trace.Send, At: 1, Host: 0, Peer: 1, Msg: 1},
		{Kind: trace.Deliver, At: 2, Host: 1, Peer: 0, Msg: 1, Arg: 0},
		{Kind: trace.Join, At: 3, Host: 2, Arg: 1},
		{Kind: trace.Send, At: 4, Host: 2, Peer: 0, Msg: 2},
		{Kind: trace.Deliver, At: 5, Host: 0, Peer: 2, Msg: 2, Arg: 1},
	} {
		h.Append(ev)
	}
	res, err := Run(Config{Schedule: h.Schedule(0, "QBC", 1), Checks: true})
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

// sparseSchedule is a schedule whose message ids are sparse and huge —
// 7, 1<<40 and 1<<62 — with a hand-off between them and the 1<<40 send
// left in flight.
func sparseSchedule(protocol string) *trace.Schedule {
	h := trace.NewHistory(3, 2)
	for _, ev := range []trace.Event{
		{Kind: trace.Send, At: 1, Host: 0, Peer: 1, Msg: 7},
		{Kind: trace.Send, At: 2, Host: 1, Peer: 2, Msg: 1 << 40}, // in flight for good
		{Kind: trace.Deliver, At: 3, Host: 1, Peer: 0, Msg: 7, Arg: 0},
		{Kind: trace.Handoff, At: 4, Host: 2, Arg: 1},
		{Kind: trace.Send, At: 5, Host: 2, Peer: 0, Msg: 1 << 62},
		{Kind: trace.Deliver, At: 6, Host: 0, Peer: 2, Msg: 1 << 62, Arg: 2},
	} {
		h.Append(ev)
	}
	return h.Schedule(0, protocol, 1)
}

// TestReplaySparseIDs: the replay numbers the protocol side's table by
// send ordinal, so a schedule with sparse, huge ids replays clean with
// its message log and checks on, allocating what three sends cost, and
// reports the schedule's own ids: in its history's in-flight set, which
// the replay held its side's table to, and in its decision log.
func TestReplaySparseIDs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(Config{Schedule: sparseSchedule("QBC"), Checks: true, MessageLog: mlog.Pessimistic})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a replay of three sends allocates %d B", got)
	}
	if got := res.Protocols[0].Trace.History().InFlight(); !slices.Equal(got, []uint64{1 << 40}) {
		t.Fatalf("the replay leaves %v in flight, want [1<<40]", got)
	}
	var ids []uint64
	for _, ds := range res.Decisions.Deliveries {
		for _, d := range ds {
			ids = append(ids, d.Msg)
		}
	}
	if !slices.Equal(ids, []uint64{1 << 62, 7}) {
		t.Fatalf("the decision log delivers %v, want [1<<62 7] (host 0's, then host 1's)", ids)
	}
}

// TestReplayRefusesMisnumberedDelivery: a schedule that delivers an
// unsent message or delivers one twice is Validate's error, returned by
// Run, before the replay's table could panic on it.
func TestReplayRefusesMisnumberedDelivery(t *testing.T) {
	unsent := replaySchedule("QBC")
	unsent.Events[1].Msg = 99
	twice := replaySchedule("QBC")
	again := twice.Events[1]
	again.Seq, again.Tick = uint64(len(twice.Events)), twice.Events[len(twice.Events)-1].Tick+1
	twice.Events = append(twice.Events, again)
	for name, s := range map[string]*trace.Schedule{"unsent": unsent, "twice": twice} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("the replay panics: %v", r)
				}
			}()
			res, err := Run(Config{Schedule: s, Checks: true})
			if err == nil || res != nil {
				t.Fatalf("Run returned %v, %v; want Validate's error", res, err)
			}
			if !strings.Contains(err.Error(), "delivers unsent message 99") && !strings.Contains(err.Error(), "redelivers message 1") {
				t.Fatalf("error %q names no misnumbered delivery", err)
			}
		})
	}
}
