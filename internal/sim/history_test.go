package sim

import (
	"fmt"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
)

// TestEngineHistoryReplays holds the protocol side to independence from
// the world on engine runs: an engine run of all seven protocols records
// its history once, each slot's export of that history (its own marker
// rounds, markers and ticks among the application's rows) replays through
// the schedule-driven world, and every host's checkpoint chain (kind,
// index and the station it landed on), both count columns of every
// delivered message and both control-message tallies must come out as the
// engine's slot had them. An event the engine mirrors and the replay does
// not — or mirrors differently — fails here.
// The logged worlds replay under the engine's discipline, and the two
// message logs' counters must be equal field for field: every world's
// hand-off prunes the switching host's log at the same frontier.
func TestEngineHistoryReplays(t *testing.T) {
	protos := AllProtocols()
	worlds := []struct {
		name  string
		apply func(*Config)
	}{
		{"calm", func(c *Config) {}},
		{"disconnections", func(c *Config) {
			c.Workload.PSwitch = 0.5
			c.Workload.DisconnectMean = 300
		}},
		{"joins", func(c *Config) {
			c.Workload.PSwitch = 0.8
			c.JoinTimes = []des.Time{400, 900, 1700}
		}},
		{"pessimistic", func(c *Config) {
			c.Workload.PSwitch = 0.8
			c.Workload.DisconnectMean = 300
			c.JoinTimes = []des.Time{900}
			c.MessageLog = mlog.Pessimistic
		}},
		{"optimistic", func(c *Config) {
			c.Workload.PSwitch = 0.8
			c.Workload.DisconnectMean = 300
			c.JoinTimes = []des.Time{900}
			c.MessageLog = mlog.Optimistic
		}},
	}
	for _, w := range worlds {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Horizon = 3000
				cfg.Seed = seed
				cfg.Workload.TSwitch = 200
				cfg.Workload.PComm = 0.2
				cfg.Protocols = protos
				cfg.RecordTrace = true
				w.apply(&cfg)
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				hist := res.Protocols[0].Trace.History()
				for i := range res.Protocols {
					eng := &res.Protocols[i]
					if eng.Trace.History() != hist {
						t.Fatalf("%s: the slots record separate histories", eng.Name)
					}
					rep, err := Run(Config{Schedule: hist.Schedule(i, string(eng.Name), seed), Checks: true, MessageLog: cfg.MessageLog})
					if err != nil {
						t.Fatalf("%s: replay of the engine's history: %v", eng.Name, err)
					}
					sameRun(t, eng, &rep.Protocols[0], res.FinalHosts)
				}
			})
		}
	}
}

// sameRun compares an engine slot with its replay: chains by kind, index
// and station, the two count columns message by message, the control
// messages of marker rounds and joins, then the message logs' counters.
func sameRun(t *testing.T, eng, rep *ProtocolResult, hosts int) {
	t.Helper()
	for h := 0; h < hosts; h++ {
		a, b := eng.Store.Chain(mobile.HostID(h)), rep.Store.Chain(mobile.HostID(h))
		if len(a) != len(b) {
			t.Fatalf("%s host %d: engine took %d checkpoints, replay %d", eng.Name, h, len(a), len(b))
		}
		for k := range a {
			if a[k].Kind != b[k].Kind || a[k].Index != b[k].Index || a[k].MSS != b[k].MSS {
				t.Fatalf("%s host %d checkpoint %d: engine %v index %d at station %d, replay %v index %d at %d",
					eng.Name, h, k, a[k].Kind, a[k].Index, a[k].MSS, b[k].Kind, b[k].Index, b[k].MSS)
			}
		}
	}
	if eng.Trace.Len() != rep.Trace.Len() {
		t.Fatalf("%s: engine delivered %d messages, replay %d", eng.Name, eng.Trace.Len(), rep.Trace.Len())
	}
	for i := range eng.Trace.Len() {
		if a, b := eng.Trace.Event(i), rep.Trace.Event(i); a.ID != b.ID || a.SendCount != b.SendCount || a.RecvCount != b.RecvCount {
			t.Fatalf("%s delivery %d: engine %+v, replay %+v", eng.Name, i, a, b)
		}
	}
	if eng.CtrlMessages != rep.CtrlMessages || eng.JoinCtrlMessages != rep.JoinCtrlMessages {
		t.Fatalf("%s control messages: engine %d (joins %d), replay %d (joins %d)", eng.Name,
			eng.CtrlMessages, eng.JoinCtrlMessages, rep.CtrlMessages, rep.JoinCtrlMessages)
	}
	if eng.Log != rep.Log {
		t.Fatalf("%s message log: engine %+v, replay %+v", eng.Name, eng.Log, rep.Log)
	}
}
