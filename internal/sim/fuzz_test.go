package sim

import (
	"encoding/json"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/pdes"
	"mobickpt/internal/trace"
)

// fuzzMaxHosts bounds the worlds FuzzReplaySchedule runs: the replay
// sizes its per-host tables (and TP its n² vectors) by the schedule's
// host count, so a one-line file naming a million hosts is a memory test,
// not a replay test.
const fuzzMaxHosts = 64

// FuzzReplaySchedule feeds arbitrary bytes, decoded as a schedule's JSON,
// to the replay: Run must refuse what Schedule.Validate refuses, run every
// schedule it accepts with the invariant checker on without panicking,
// and whenever it returns a result, the checks must have passed. The
// seeds are recorded live clusters, an engine run's exported history and
// a schedule of sparse, huge message ids.
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
	cfg.Protocols = []ProtocolName{BCS, UNC, CL, PS, MS}
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i, pr := range res.Protocols {
		f.Add(exportSchedule(f, pr.Trace.History().Schedule(i, string(pr.Name), cfg.Seed)))
	}
	f.Add(exportSchedule(f, sparseSchedule("TP"))) // ids 7, 1<<40 and 1<<62

	f.Fuzz(func(t *testing.T, b []byte) {
		var s trace.Schedule
		if json.Unmarshal(b, &s) != nil || s.Hosts > fuzzMaxHosts || s.FinalHosts() > fuzzMaxHosts {
			return
		}
		res, err := Run(Config{Schedule: &s, Checks: true})
		if res != nil && err != nil {
			t.Fatalf("the replay of an accepted schedule fails its checks: %v", err)
		}
	})
}

func exportSchedule(f *testing.F, s *trace.Schedule) []byte {
	f.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// fuzzConfig maps fuzz bytes onto a small generative world — at most 32
// hosts and 8 stations, a horizon of at most 2000 — one byte per knob, in
// a fixed order, and zero once the bytes run out. Each knob's range
// reaches past what Validate accepts (no hosts, an unknown engine or log
// mode, negative lanes, zero latencies, loss without a
// retransmit timeout, joins past the horizon, a clock-driven protocol
// without a period), so both of Run's outcomes are fuzzed.
func fuzzConfig(b []byte) Config {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	// small draws 0..m-2, or -1: zero stays the valid default.
	small := func(m int) int {
		if v := next() % m; v < m-1 {
			return v
		}
		return -1
	}
	c := DefaultConfig()
	c.Workload.TSwitch, c.Workload.PSwitch, c.Workload.DisconnectMean = 100, 0.8, 100
	c.Mobile.NumHosts = next() % 33
	c.Mobile.NumMSS = next() % 9
	c.Horizon = des.Time(next() * 2000 / 255)
	c.Seed = uint64(next())
	c.Engine = pdes.Mode(next() % 3)
	c.Lanes = small(6)
	c.Protocols = nil
	mask := next()
	for i, p := range AllProtocols() {
		if mask&(1<<i) != 0 {
			c.Protocols = append(c.Protocols, p)
		}
	}
	c.Mobile.WirelessLatency = des.Time(next()%4) * 0.01
	c.Mobile.WiredLatency = des.Time(next()%4) * 0.01
	c.Mobile.Contention = next()&1 == 1
	c.Mobile.LossProbability = float64(next()%4) * 0.1
	c.Mobile.RetransmitTimeout = des.Time(next()%3) * 0.05
	c.MessageLog = mlog.Mode(next() % 4)
	c.Checks = next()&1 == 1
	c.RecordTrace = next()&1 == 1
	c.CheckpointLatency = des.Time(next()%4) * 0.5
	for j := next() % 3; j > 0; j-- {
		c.JoinTimes = append(c.JoinTimes, des.Time(next()*2100/255))
	}
	c.GCInterval = des.Time(next()%4) * 100
	c.SnapshotPeriod = des.Time(next()%4) * 50
	return c
}

// FuzzConfig holds Run to its contract on every configuration fuzzConfig
// builds: a rejected one returns exactly Validate's error and no result;
// an accepted one runs — with the invariant checker on wherever the
// engine allows it — and its result is self-consistent (every protocol's
// N_tot is its basic plus forced checkpoints, and no more messages are
// delivered than were sent). Neither may panic.
func FuzzConfig(f *testing.F) {
	f.Add([]byte{})
	// The paper's world over TP, BCS and QBC on each engine: ten hosts,
	// five stations, horizon 1000, two lanes on the parallel one.
	f.Add([]byte{10, 5, 128, 1, 0, 0, 0b111, 1, 1})
	f.Add([]byte{10, 5, 128, 1, 1, 2, 0b111, 1, 1})
	// Every protocol, contention, loss, pessimistic logging, traces,
	// joins, GC and a snapshot period on the sequential engine.
	f.Add([]byte{12, 4, 200, 7, 0, 0, 0x7f, 1, 2, 1, 1, 2, 1, 1, 1, 0, 2, 60, 120, 2, 2})
	// One protocol with a checkpoint latency and optimistic logging.
	f.Add([]byte{6, 3, 90, 3, 0, 0, 0b100, 2, 1, 0, 0, 0, 2, 0, 0, 2, 1, 30, 1, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg := fuzzConfig(b)
		if verr := cfg.Validate(); verr != nil {
			res, err := Run(cfg)
			if res != nil || err == nil || err.Error() != verr.Error() {
				t.Fatalf("rejected config: Run returned (%v, %v), want (nil, %v)", res, err, verr)
			}
			return
		}
		if cfg.Engine == pdes.ModeSequential {
			cfg.Checks = true
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("accepted config (engine %s, %d lanes, %v, log %s, trace %v): %v",
				cfg.Engine, cfg.Lanes, cfg.Protocols, cfg.MessageLog, cfg.RecordTrace, err)
		}
		for _, pr := range res.Protocols {
			if pr.Ntot != pr.Basic+pr.Forced {
				t.Fatalf("%s: Ntot %d != basic %d + forced %d", pr.Name, pr.Ntot, pr.Basic, pr.Forced)
			}
		}
		if n := res.Network; n.Delivered > n.AppMessages {
			t.Fatalf("%d messages delivered of %d sent", n.Delivered, n.AppMessages)
		}
	})
}
