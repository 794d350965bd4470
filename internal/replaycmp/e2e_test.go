package replaycmp_test

// The differential test itself (E24): run the live goroutine cluster
// with recording on, re-execute its schedule through the deterministic
// sim engine, and require byte-identical decision logs — per-host
// checkpoint sequences with kinds, indices and causes, per-delivery
// piggyback fingerprints and receive counts, and the post-hoc
// recovery-line matrices. Any disagreement means one of the two
// execution environments misimplements the protocol.

import (
	"fmt"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
)

func record(t *testing.T, cfg live.Config, protocol string) *live.Cluster {
	t.Helper()
	mk, err := live.Factory(protocol)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Record = true
	c, err := live.NewCluster(cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	return c
}

// replay re-executes c's recorded schedule under the same logging
// discipline and holds the two executions to identical decision logs
// and, when they log, to field-for-field equal message-log counters: a
// recorded run and its replay append, flush, prune and hand off the same
// entries at the same instants, or one of them is wrong.
func replay(t *testing.T, c *live.Cluster, cfg live.Config) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Schedule:      c.Schedule(),
		Checks:        true,
		MessageLog:    cfg.LogMode,
		LogFlushBatch: cfg.LogFlushBatch,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	if d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule()); d != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, d)
	}
	if cfg.LogMode != mlog.Off {
		if got, want := res.Protocols[0].Log, c.MLog().Counters(); got != want {
			t.Fatalf("seed %d: replayed log counters %+v, live %+v", cfg.Seed, got, want)
		}
	}
	return res
}

// The tentpole gate: live and replayed decisions must be identical for
// every CIC protocol across seeds, mobility rates and logging
// disciplines. The logged TP rows prove "unpruned on both sides", the
// logged BCS/QBC rows "pruned identically".
func TestDifferentialReplay(t *testing.T) {
	rates := []struct {
		name              string
		pswitch, pdisconn float64
	}{
		{"calm", 0.05, 0.02},
		{"stormy", 0.15, 0.08},
	}
	for _, protocol := range []string{"TP", "BCS", "QBC"} {
		for _, rate := range rates {
			t.Run(fmt.Sprintf("%s/%s", protocol, rate.name), func(t *testing.T) {
				t.Parallel()
				for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
					t.Run("log-"+mode.String(), func(t *testing.T) {
						t.Parallel()
						var pruned int64
						for seed := uint64(1); seed <= 5; seed++ {
							cfg := live.DefaultConfig()
							cfg.Seed = seed
							cfg.OpsPerHost = 200
							cfg.PSwitch = rate.pswitch
							cfg.PDisconnect = rate.pdisconn
							cfg.LogMode = mode
							c := record(t, cfg, protocol)
							replay(t, c, cfg)
							if mode != mlog.Off {
								pruned += c.MLog().Counters().Pruned
							}
						}
						if mode != mlog.Off && (pruned > 0) != (protocol != "TP") {
							t.Fatalf("%s hand-offs pruned %d log entries over five seeds", protocol, pruned)
						}
					})
				}
			})
		}
	}
}

// Dynamic joins ride the schedule too — and hold the pruning frontier
// back on both sides alike.
func TestDifferentialReplayWithJoins(t *testing.T) {
	for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
		t.Run("log-"+mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := live.DefaultConfig()
			cfg.OpsPerHost = 200
			cfg.Joins = 4
			cfg.LogMode = mode
			c := record(t, cfg, "QBC")
			res := replay(t, c, cfg)
			if res.FinalHosts != cfg.Hosts+cfg.Joins {
				t.Fatalf("replay ends with %d hosts, want %d", res.FinalHosts, cfg.Hosts+cfg.Joins)
			}
		})
	}
}

// The gate must be able to fail: perturbing a single replayed decision
// has to surface as a divergence at exactly that decision. A differ
// that cannot reject anything verifies nothing.
func TestDifferentialReplayDetectsPerturbation(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 200
	c := record(t, cfg, "QBC")
	res := replay(t, c, cfg)
	if !replaycmp.Perturb(res.Decisions, 42) {
		t.Fatal("perturbation refused")
	}
	d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule())
	if d == nil {
		t.Fatal("perturbed replay still compares equal — the gate cannot fail")
	}
	if d.Field != "checkpoint" {
		t.Fatalf("divergence field %q, want checkpoint", d.Field)
	}
	if d.Context == nil {
		t.Fatal("divergence report lacks vector-clock context")
	}
}
