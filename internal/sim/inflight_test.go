package sim

import (
	"fmt"
	"slices"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/pdes"
)

// TestInFlightParity: the protocol side keeps every message from its send
// to its delivery, and after a run the ids it still holds are exactly the
// run's messages in flight, in every world. The engine runs all seven
// protocols with joins, a recorded trace, a pessimistic log and a stormy
// disconnect mix: its side's ids are the history's (trace.History.InFlight)
// and their count the network's undelivered one. The lane engine keeps no
// history, so at 2 and 4 lanes the count is checked alone. A recorded live
// cluster's side holds its recording's in-flight section, which is its
// history's — usually empty, as the cluster drains its traffic first,
// where a side that kept its delivered rows would hold every message; the
// replay of that recording checks its own side's table against the
// section (runSchedule) and must record the same history.
func TestInFlightParity(t *testing.T) {
	for _, lanes := range []int{0, 2, 4} {
		t.Run(fmt.Sprint("engine/lanes", lanes), func(t *testing.T) {
			cfg := pipelineConfig()
			cfg.Protocols = AllProtocols()
			cfg.JoinTimes = []des.Time{400, 900, 1700}
			cfg.Workload.Heterogeneity, cfg.Workload.PSwitch = 0.5, 0.8
			cfg.Workload.DisconnectMean = 300
			if lanes > 0 {
				cfg.Engine, cfg.Lanes = pdes.ModeConservative, lanes
			} else {
				cfg.RecordTrace, cfg.MessageLog = true, mlog.Pessimistic
			}
			var e *engine
			res, err := run(cfg, func(x *engine) { e = x })
			if err != nil {
				t.Fatal(err)
			}
			got := e.InFlight()
			if undelivered := res.Network.AppMessages - res.Network.Delivered; int64(len(got)) != undelivered {
				t.Fatalf("the side holds %d messages in flight, the network %d undelivered", len(got), undelivered)
			}
			if len(got) == 0 {
				t.Fatal("no message in flight at the end: the run checks nothing")
			}
			if e.Hist != nil {
				if want := e.Hist.InFlight(); !slices.Equal(got, want) {
					t.Fatalf("the side holds %d messages in flight, the history %d, or other ids", len(got), len(want))
				}
			}
		})
	}

	cfg := live.DefaultConfig()
	cfg.Joins, cfg.Record, cfg.LogMode = 1, true, mlog.Pessimistic
	c, err := live.NewCluster(cfg, mustFactory(t, "QBC"))
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	sched := c.Schedule()
	t.Run("live", func(t *testing.T) {
		if got := c.InFlight(); !slices.Equal(got, sched.InFlight) {
			t.Fatalf("the cluster's side holds %d messages in flight, its history %d, or other ids", len(got), len(sched.InFlight))
		}
	})
	t.Run("replay", func(t *testing.T) {
		res, err := Run(Config{Schedule: sched, MessageLog: cfg.LogMode})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Protocols[0].Trace.History().InFlight(); !slices.Equal(got, sched.InFlight) {
			t.Fatalf("the replay's history has %d messages in flight, the recording %d, or other ids", len(got), len(sched.InFlight))
		}
	})
}

func mustFactory(t *testing.T, name string) live.NewProtocol {
	t.Helper()
	mk, err := live.Factory(name)
	if err != nil {
		t.Fatal(err)
	}
	return mk
}
