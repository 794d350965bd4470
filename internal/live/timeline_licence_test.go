package live

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/sim"
)

var updateLicence = flag.Bool("update", false, "rewrite testdata/timeline from the current recorder")

// The timeline licence of the live cluster and of the replay: the files
// under testdata/timeline are what the recorder wrote when the timeline
// was drawn by hooks inside the event path, before it became a rendering
// of the run's history. They were written at the commit that added this
// test, by
//
//	go test -run 'TestLiveTimelineLicence|TestReplayTimelineLicence' ./internal/live -update
//
// A timeline must reproduce its file byte for byte, except for the
// message flows' ids (the msg-flow events' id, the send and delivery
// instants' msg arg), which may be renamed one to one.

// TestLiveTimelineLicence drives a logged cluster's events from the test
// goroutine — sends, deliveries, hand-offs, disconnections, a join —
// finishes it as Run does, and recovers one host.
func TestLiveTimelineLicence(t *testing.T) {
	cfg := loggedConfig(mlog.Pessimistic)
	cfg.Hosts, cfg.Joins = 5, 1
	cfg.PSend, cfg.PSwitch, cfg.PDisconnect = 0.35, 0.1, 0.08
	cfg.Timeline = obs.NewTimeline()
	c := scriptedCluster(t, cfg, qbcFactory)
	srcs := make([]*rng.Source, cfg.Hosts+cfg.Joins)
	for h := range srcs {
		srcs[h] = rng.NewStream(cfg.Seed, uint64(h))
	}
	connected := make([]bool, len(srcs))
	var xfer logTransferScratch
	for round := range 60 {
		if round == 30 {
			connected[c.addHost()] = true
		}
		for h := range c.hosts {
			id, src := mobile.HostID(h), srcs[h]
			if !connected[h] && round > 0 {
				c.reconnect(id)
				connected[h] = true
				c.drain(id, c.downlink[h], c.seen[h])
				continue
			}
			connected[h] = true
			switch r := src.Float64(); {
			case r < cfg.PSend:
				c.send(id, src)
				for _, w := range c.wired {
					for pkt, ok := w.tryGet(); ok; pkt, ok = w.tryGet() {
						c.downlink[pkt.to].put(pkt)
					}
				}
			case r < cfg.PSend+cfg.PSwitch:
				c.switchCell(id, src, &xfer)
			case r < cfg.PSend+cfg.PSwitch+cfg.PDisconnect:
				c.disconnect(id)
				connected[h] = false
			default:
				if pkt, ok := c.downlink[h].tryGet(); ok {
					c.deliver(id, pkt, c.seen[h])
				}
			}
		}
	}
	for h := range c.hosts {
		if !connected[h] {
			c.reconnect(mobile.HostID(h))
		}
	}
	c.drainFinal()
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	checkLicence(t, cfg.Timeline, "live-scripted.json")
}

// TestReplayTimelineLicence replays a live recording (testdata's
// replay-bundle.json, a logged BCS cluster with a join) with a timeline.
func TestReplayTimelineLicence(t *testing.T) {
	bundlePath := filepath.Join("testdata", "timeline", "replay-bundle.json")
	if *updateLicence {
		cfg := loggedConfig(mlog.Pessimistic)
		cfg.OpsPerHost, cfg.Joins = 120, 1
		c := runCluster(t, cfg, bcsFactory)
		var buf bytes.Buffer
		if err := (&replaycmp.Bundle{Schedule: c.Schedule(), Live: c.Decisions()}).Export(&buf); err != nil {
			t.Fatal(err)
		}
		writeLicence(t, bundlePath, buf.Bytes())
	}
	raw, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replaycmp.ImportBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Schedule: b.Schedule, MessageLog: mlog.Pessimistic, Timeline: obs.NewTimeline()})
	if err != nil {
		t.Fatal(err)
	}
	checkLicence(t, res.Config.Timeline, "replay.json")
}

func writeLicence(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkLicence holds tl's export to testdata/timeline/name, up to a
// one-to-one renaming of the message flows' ids.
func checkLicence(t *testing.T, tl *obs.Timeline, name string) {
	t.Helper()
	var got bytes.Buffer
	if err := tl.Export(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "timeline", name)
	if *updateLicence {
		writeLicence(t, path, got.Bytes())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type export struct {
		TraceEvents []obs.TimelineEvent `json:"traceEvents"`
	}
	var g, w export
	if err := json.Unmarshal(got.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if len(g.TraceEvents) != len(w.TraceEvents) {
		t.Fatalf("%d events, %s holds %d", len(g.TraceEvents), path, len(w.TraceEvents))
	}
	// fwd and back hold the renaming both ways, so it stays one to one.
	fwd, back := map[string]string{}, map[string]string{}
	rename := func(i int, old, now string) {
		if f, ok := fwd[old]; ok && f != now || back[now] != "" && back[now] != old {
			t.Fatalf("event %d: flow %s is %s here, the renaming says %s (or %s names another flow)", i, old, now, f, now)
		}
		fwd[old], back[now] = now, old
	}
	for i := range w.TraceEvents {
		we, ge := w.TraceEvents[i], g.TraceEvents[i]
		switch we.Name {
		case "msg-flow":
			rename(i, we.ID, ge.ID)
			ge.ID = we.ID
		case "send", "deliver":
			rename(i, we.Args["msg"], ge.Args["msg"])
			ge.Args["msg"] = we.Args["msg"]
		}
		if !reflect.DeepEqual(ge, we) {
			t.Fatalf("event %d is %+v, %s holds %+v", i, ge, path, we)
		}
	}
}
