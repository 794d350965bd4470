package sim

import (
	"bytes"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/live"
	"mobickpt/internal/trace"
)

// fuzzMaxHosts bounds the worlds FuzzReplaySchedule runs: the replay
// sizes its per-host tables (and TP its n² vectors) by the schedule's
// host count, so a one-line file naming a million hosts is a memory test,
// not a replay test.
const fuzzMaxHosts = 64

// FuzzReplaySchedule feeds arbitrary bytes to the replay: every schedule
// ImportSchedule accepts must run through Run with the invariant checker
// on without panicking, and whenever Run returns a result, the checks must
// have passed. The seeds are recorded live clusters and an engine run's
// exported history.
func FuzzReplaySchedule(f *testing.F) {
	for _, proto := range []string{"TP", "QBC"} {
		mk, err := live.Factory(proto)
		if err != nil {
			f.Fatal(err)
		}
		cfg := live.DefaultConfig()
		cfg.OpsPerHost = 60
		cfg.Joins = 1
		cfg.Record = true
		c, err := live.NewCluster(cfg, mk)
		if err != nil {
			f.Fatal(err)
		}
		c.Run()
		f.Add(exportSchedule(f, c.Schedule()))
	}
	cfg := DefaultConfig()
	cfg.Horizon = 600
	cfg.Workload.TSwitch = 100
	cfg.Workload.PSwitch = 0.6
	cfg.Workload.DisconnectMean = 100
	cfg.JoinTimes = []des.Time{300}
	cfg.Protocols = []ProtocolName{BCS, UNC}
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, pr := range res.Protocols {
		f.Add(exportSchedule(f, pr.Trace.History().Schedule(string(pr.Name), cfg.Seed)))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := trace.ImportSchedule(bytes.NewReader(b))
		if err != nil || s.Hosts > fuzzMaxHosts || s.FinalHosts() > fuzzMaxHosts {
			return
		}
		res, err := Run(Config{Schedule: s, Checks: true})
		if res != nil && err != nil {
			t.Fatalf("the replay of an accepted schedule fails its checks: %v", err)
		}
	})
}

func exportSchedule(f *testing.F, s *trace.Schedule) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
