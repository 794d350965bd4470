package live

import (
	"bytes"
	"strconv"
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
)

// The live timeline records the cluster's protocol events with causal
// flow chains: every delivered packet's flow starts at its send, steps
// through its delivery, and ends; a recovery emits a rollback flow
// linking the failed host to every host the cut rolled back. The trace
// must also survive an export/import round trip.
func TestLiveTimeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeline = obs.NewTimeline()
	c := runCluster(t, cfg, qbcFactory)
	rep, err := c.Recover(2)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cfg.Timeline.Export(&buf); err != nil {
		t.Fatal(err)
	}
	tl, err := obs.ImportTimeline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[string]bool{}
	type flow struct{ starts, steps, ends int }
	msg := map[string]*flow{}
	roll := map[string]*flow{}
	for _, ev := range tl.Events() {
		kinds[ev.Name] = true
		var m map[string]*flow
		switch ev.Name {
		case "msg-flow":
			m = msg
		case "rollback-flow":
			m = roll
		default:
			continue
		}
		f := m[ev.ID]
		if f == nil {
			f = &flow{}
			m[ev.ID] = f
		}
		switch ev.Phase {
		case "s":
			f.starts++
		case "t":
			f.steps++
		case "f":
			f.ends++
		}
	}
	for _, want := range []string{"send", "deliver", "checkpoint", "handoff", "rollback"} {
		if !kinds[want] {
			t.Errorf("timeline has no %q events (saw %v)", want, kinds)
		}
	}
	if len(msg) == 0 {
		t.Fatal("no message flows recorded")
	}
	complete := 0
	for id, f := range msg {
		if f.starts != 1 {
			t.Fatalf("msg flow %s: %d starts", id, f.starts)
		}
		if f.ends > 0 {
			if f.steps < 1 || f.ends != 1 {
				t.Fatalf("msg flow %s: steps=%d ends=%d", id, f.steps, f.ends)
			}
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("no complete send->deliver flow")
	}
	if len(roll) != 1 {
		t.Fatalf("recorded %d rollback flows, want 1", len(roll))
	}
	for id, f := range roll {
		if f.starts != 1 || f.ends != 1 || f.steps != len(rep.Restored) {
			t.Fatalf("rollback flow %s: starts=%d steps=%d ends=%d, want 1/%d/1",
				id, f.starts, f.steps, f.ends, len(rep.Restored))
		}
	}
}

// The timeline observes the cluster; it does not drive its clock. Every
// protocol event advances the logical tick exactly once — so a recording's
// ticks run 1, 2, 3, ... with or without a timeline — and everything one
// event produces carries that tick: each checkpoint instant sits at its
// store record's TakenAt, with that record's kind and index.
func TestLiveTimelineKeepsTheClock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Record = true
	cfg.Joins = 2
	cfg.Timeline = obs.NewTimeline()
	c := runCluster(t, cfg, qbcFactory)
	for k, ev := range c.Schedule().Events {
		if ev.Tick != uint64(k+1) {
			t.Fatalf("schedule event %d (%s) at tick %d, want %d: something besides the events advanced the clock", k, ev.Kind, ev.Tick, k+1)
		}
	}
	byTrack := map[int][]obs.TimelineEvent{}
	for _, ev := range cfg.Timeline.Events() {
		if ev.Name == "checkpoint" {
			byTrack[ev.Tid] = append(byTrack[ev.Tid], ev)
		}
	}
	for h := 0; h < cfg.Hosts+cfg.Joins; h++ {
		chain := c.Store().Chain(mobile.HostID(h))
		if len(byTrack[h]) != len(chain) {
			t.Fatalf("host %d: %d checkpoint instants for %d store records", h, len(byTrack[h]), len(chain))
		}
		for ord, ev := range byTrack[h] {
			rec := chain[ord]
			if ev.Ts != float64(rec.TakenAt) || ev.Args["kind"] != rec.Kind.String() || ev.Args["index"] != strconv.Itoa(int(rec.Index)) {
				t.Fatalf("host %d checkpoint #%d: instant %v at %v, record is %s idx %d at %v",
					h, ord, ev.Args, ev.Ts, rec.Kind, rec.Index, rec.TakenAt)
			}
		}
	}
}
