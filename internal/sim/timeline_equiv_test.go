package sim

import (
	"bytes"
	"sort"
	"strconv"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/race"
	"mobickpt/internal/vclock"
)

// timelineConfig is the paper's §5.1 configuration over a shortened
// horizon: long enough for every protocol to take forced checkpoints,
// short enough to export and compare in-memory timelines repeatedly.
func timelineConfig() Config {
	c := DefaultConfig()
	c.Horizon = 10000
	if testing.Short() {
		c.Horizon = 4000
	}
	return c
}

// timelineExport runs cfg with a fresh timeline attached and returns the
// exported Chrome trace bytes.
func timelineExport(t *testing.T, cfg Config) []byte {
	t.Helper()
	cfg.Timeline = obs.NewTimeline()
	if _, err := Run(cfg); err != nil {
		t.Fatalf("engine=%s lanes=%d: %v", cfg.Engine, cfg.Lanes, err)
	}
	var buf bytes.Buffer
	if err := cfg.Timeline.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimelineEngineEquivalence is the observatory's acceptance check:
// the per-host timeline — including the causal flow events — must export
// byte-identically under the sequential engine and the conservative
// engine at lanes 1, 2 and 4, with and without the engine-internals
// probes attached. The timeline is a statement about the simulated world,
// and the world is engine-independent.
func TestTimelineEngineEquivalence(t *testing.T) {
	cfg := timelineConfig()
	want := timelineExport(t, cfg)
	if len(want) == 0 {
		t.Fatal("empty timeline export")
	}
	for _, lanes := range []int{1, 2, 4} {
		for _, probes := range []bool{false, true} {
			c := cfg
			c.Engine, c.Lanes, c.Probes = pdes.ModeConservative, lanes, probes
			if got := timelineExport(t, c); !bytes.Equal(got, want) {
				t.Errorf("lanes=%d probes=%v: timeline differs from sequential (%d vs %d bytes)",
					lanes, probes, len(got), len(want))
			}
		}
	}
	// Probes must not perturb the sequential timeline either.
	c := cfg
	c.Probes = true
	if got := timelineExport(t, c); !bytes.Equal(got, want) {
		t.Error("sequential timeline differs with probes attached")
	}
}

// flowRecord collects one flow id's events from an exported timeline.
type flowRecord struct {
	starts, steps, ends int
	sendTrack           int
	sendTs              float64
	firstStepTs         float64
	stepTracks          []int
}

// collectFlows parses an exported timeline and indexes its flow events.
func collectFlows(t *testing.T, raw []byte) (*obs.Timeline, map[uint64]*flowRecord) {
	t.Helper()
	tl, err := obs.ImportTimeline(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	flows := map[uint64]*flowRecord{}
	get := func(ev obs.TimelineEvent) *flowRecord {
		id, err := strconv.ParseUint(ev.ID, 10, 64)
		if err != nil {
			t.Fatalf("flow event with bad id %q: %v", ev.ID, err)
		}
		f := flows[id]
		if f == nil {
			f = &flowRecord{}
			flows[id] = f
		}
		return f
	}
	for _, ev := range tl.Events() {
		switch ev.Phase {
		case "s":
			f := get(ev)
			f.starts++
			f.sendTrack, f.sendTs = ev.Tid, ev.Ts
		case "t":
			f := get(ev)
			if f.steps == 0 {
				f.firstStepTs = ev.Ts
			}
			f.steps++
			f.stepTracks = append(f.stepTracks, ev.Tid)
		case "f":
			get(ev).ends++
		}
	}
	return tl, flows
}

// TestTimelineFlowChains checks the structure the flows promise: every
// delivered message's flow has exactly one start, one end, and at least
// the delivery step, start-before-step timestamps, and — per protocol —
// at least one forced checkpoint linked into some flow (a "t" step
// emitted at the same instant, on the same track, right after the forced
// checkpoint instant).
func TestTimelineFlowChains(t *testing.T) {
	raw := timelineExport(t, timelineConfig())
	tl, flows := collectFlows(t, raw)
	if len(flows) == 0 {
		t.Fatal("no flow events in timeline export")
	}
	for id, f := range flows {
		if f.ends == 0 {
			// A message still in flight (or parked) at the horizon: its
			// flow begins but never completes. Structure checks below only
			// apply to completed flows.
			continue
		}
		if f.starts != 1 || f.ends != 1 || f.steps < 1 {
			t.Fatalf("flow %d: starts=%d steps=%d ends=%d, want 1/>=1/1", id, f.starts, f.steps, f.ends)
		}
		if f.firstStepTs < f.sendTs {
			t.Errorf("flow %d: delivery at %v precedes send at %v", id, f.firstStepTs, f.sendTs)
		}
		if from := int(id >> 32); from != f.sendTrack {
			t.Errorf("flow %d: send on track %d, id names sender %d", id, f.sendTrack, from)
		}
	}

	// Per protocol: a forced checkpoint chained into a flow. The
	// checkpointer emits the checkpoint instant and then the flow step on
	// the same track at the same timestamp, so in canonical (track, seq)
	// order the step follows its instant directly.
	evs := tl.Events()
	linked := map[string]bool{}
	for i := 1; i < len(evs); i++ {
		prev, ev := evs[i-1], evs[i]
		if ev.Phase != "t" || prev.Name != "checkpoint" || prev.Tid != ev.Tid || prev.Ts != ev.Ts {
			continue
		}
		if prev.Args["kind"] == "forced" {
			linked[prev.Args["proto"]] = true
		}
	}
	for _, p := range PaperProtocols() {
		if !linked[string(p)] {
			t.Errorf("no forced checkpoint linked into a flow for %s", p)
		}
	}
}

// TestTimelineFlowsHappensBefore replays the exported send/deliver flow
// events through vector clocks (internal/vclock): each delivery merges
// the sender's clock as stamped at the send, and the receiver's clock
// must dominate that stamp afterwards — the flows encode a causally
// consistent message history.
func TestTimelineFlowsHappensBefore(t *testing.T) {
	raw := timelineExport(t, timelineConfig())
	tl, flows := collectFlows(t, raw)

	// Gather (ts, kind, host, flow) tuples for sends and first steps
	// (deliveries), then replay in timestamp order. Ties cannot pair a
	// send with its own delivery: the uplink latency is positive.
	type ev struct {
		ts      float64
		deliver bool
		host    int
		flow    uint64
	}
	var seq []ev
	for id, f := range flows {
		seq = append(seq, ev{f.sendTs, false, f.sendTrack, id})
		if f.steps > 0 {
			seq = append(seq, ev{f.firstStepTs, true, f.stepTracks[0], id})
		}
	}
	// Sort by (ts, deliver-after-send, flow) — deterministic and causal.
	sort.Slice(seq, func(i, j int) bool {
		a, b := seq[i], seq[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.deliver != b.deliver {
			return !a.deliver
		}
		return a.flow < b.flow
	})

	hosts := 0
	for _, ev := range tl.Events() {
		if ev.Tid >= hosts {
			hosts = ev.Tid + 1
		}
	}
	clocks := make([]vclock.Vector, hosts)
	for i := range clocks {
		clocks[i] = vclock.New(hosts, 0)
	}
	stamps := map[uint64]vclock.Vector{}
	deliveries := 0
	for _, e := range seq {
		if !e.deliver {
			clocks[e.host][e.host]++
			stamps[e.flow] = clocks[e.host].Clone()
			continue
		}
		stamp, ok := stamps[e.flow]
		if !ok {
			t.Fatalf("flow %d delivered before (or without) its send", e.flow)
		}
		clocks[e.host].Merge(stamp)
		clocks[e.host][e.host]++
		if !clocks[e.host].Dominates(stamp) {
			t.Fatalf("flow %d: receiver %d clock %v does not dominate stamp %v",
				e.flow, e.host, clocks[e.host], stamp)
		}
		deliveries++
	}
	if deliveries == 0 {
		t.Fatal("no deliveries replayed")
	}
}

// TestProbesAccountForEveryEvent: most operations run in line and never
// touch a queue, and the probes say where they went. A sequential run's
// queue pops plus its in-line steps are the events fired, plus the one
// pop Run puts back at the horizon; a parallel run's lane pops and steps
// are, its global queue holding no events in this world.
func TestProbesAccountForEveryEvent(t *testing.T) {
	for _, mode := range []pdes.Mode{pdes.ModeSequential, pdes.ModeConservative} {
		c := testConfig()
		c.Probes, c.Engine = true, mode
		want := uint64(1)
		if mode != pdes.ModeSequential {
			c.Checks, c.Lanes, want = false, 2, 0
		}
		res := mustRun(t, c)
		q := res.Probes.GlobalQueue
		pops, inline := q.Pops, q.Inline
		for _, lq := range res.Probes.LaneQueues {
			pops += lq.Pops
			inline += lq.Inline
		}
		want += res.EventsFired
		if pops+inline != want {
			t.Errorf("engine=%s: %d pops + %d in line = %d, want %d", mode, pops, inline, pops+inline, want)
		}
		if inline < res.EventsFired/2 {
			t.Errorf("engine=%s: only %d of %d events ran in line", mode, inline, res.EventsFired)
		}
	}
}

// TestProbesDoNotPerturb holds Config.Probes to its promise: the export
// of a probed run — with the engine-dependent probe report stripped — is
// byte-identical to the unprobed run's, on the sequential and parallel
// engines alike.
func TestProbesDoNotPerturb(t *testing.T) {
	cfg := timelineConfig()
	want := exportOf(t, cfg)
	for _, mode := range []pdes.Mode{pdes.ModeSequential, pdes.ModeConservative} {
		c := cfg
		c.Engine, c.Probes = mode, true
		if mode != pdes.ModeSequential {
			c.Lanes = 2
		}
		res, err := Run(c)
		if err != nil {
			t.Fatalf("engine=%s: %v", mode, err)
		}
		if res.Probes == nil {
			t.Fatalf("engine=%s: no probe report", mode)
		}
		if res.Probes.GlobalQueue.Pushes == 0 && res.Probes.LaneQueues == nil {
			t.Errorf("engine=%s: probe report recorded no queue activity: %+v", mode, res.Probes)
		}
		res.Probes = nil
		var buf bytes.Buffer
		if err := res.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("engine=%s: probed export differs from bare run", mode)
		}
	}
}

// TestLaneTimelineOrdinals: a lane-engine run with a timeline keeps a
// history, and each delivery row must name its message's ordinal — the
// number of sends the protocol side was handed before it — not the
// network's message id, which the lanes allocate in scheduling order
// (the history panicked on the first delivery whose id was not its
// ordinal). Every seed's timeline must also be the sequential engine's.
func TestLaneTimelineOrdinals(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := DefaultConfig()
		cfg.Horizon, cfg.Seed = 4000, seed
		want := timelineExport(t, cfg)
		for _, lanes := range []int{2, 4} {
			c := cfg
			c.Engine, c.Lanes = pdes.ModeConservative, lanes
			if got := timelineExport(t, c); !bytes.Equal(got, want) {
				t.Errorf("seed %d lanes %d: timeline differs from the sequential engine's (%d vs %d bytes)",
					seed, lanes, len(got), len(want))
			}
		}
	}
}

// TestRenderTimelineAllocs budgets the timeline when it is on: drawing a
// finished run — all seven protocols, a pessimistic log's flushes, two
// joins — allocates at most 3.5 times per event drawn (2.85 measured: an
// instant's args map, its formatted numbers, the variadic args slice and
// the timeline's growing event slice, amortised).
func TestRenderTimelineAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := DefaultConfig()
	cfg.Horizon, cfg.Protocols, cfg.MessageLog = 2000, AllProtocols(), mlog.Pessimistic
	cfg.JoinTimes = []des.Time{500, 1500}
	cfg.Timeline = obs.NewTimeline()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.run()
	events := 0
	allocs := testing.AllocsPerRun(3, func() {
		tl := obs.NewTimeline()
		e.RenderTimeline(tl)
		events = tl.Len()
	})
	if per := allocs / float64(events); events == 0 || per > 3.5 {
		t.Errorf("%.0f allocations for %d events drawn: %.2f per event, want at most 3.5", allocs, events, per)
	} else {
		t.Logf("%.2f allocations per event drawn (%d events)", per, events)
	}
}
