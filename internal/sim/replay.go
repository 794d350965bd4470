package sim

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/stats"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// This file holds the recovery/replay analysis helpers shared by
// cmd/recovery, the E18 experiment (ReplayTable) and the benches.

// SeedCut builds the protocol-appropriate recovery line after a crash of
// host failed: TP seeds from its dependency vectors, the index-based
// protocols from their latest same-index line, everything else from the
// bare failure cut. Run (replay-aware) propagation on the result to
// reach consistency.
func SeedCut(pr *ProtocolResult, n int, failed mobile.HostID) recovery.Cut {
	switch {
	case pr.Name == TP:
		if meta := TPMeta(pr); meta != nil {
			return recovery.VectorCut(pr.Store, meta, n, failed)
		}
	case indexBased(pr.Name):
		return recovery.LatestIndexCut(pr.Store, n, failed)
	}
	return recovery.FailureCut(pr.Store, n, failed)
}

// Logged adapts a protocol result's MSS message log to the recovery
// package's replay predicate: a delivery is replayable iff it reached
// the log's stable frontier. It returns nil when the run did not log.
func Logged(pr *ProtocolResult) recovery.LoggedFunc {
	lg := pr.MLog
	if lg == nil {
		return nil
	}
	return func(ev trace.MessageEvent, seq int) bool {
		return seq < lg.StableBound(ev.To)
	}
}

// ReplayOutcome compares rollback cost without and with log-based
// replay for one protocol result (one seed, one failure).
type ReplayOutcome struct {
	Plain     recovery.Metrics       // classic orphan-elimination recovery
	PlainCut  recovery.Cut           // recovery line the classic recovery restores
	Replay    recovery.ReplayMetrics // replay-aware recovery over the same log
	ReplayCut recovery.Cut           // recovery line of the replay-aware recovery
}

// AnalyzeReplay injects a failure of host failed at failTime into a
// recorded run and measures both recoveries. The result must carry a
// trace; Replay degrades to Plain when the run did not log. n is the
// width of the cuts and must be the trace's host count
// (pr.Trace.NumHosts(): Config.Mobile.NumHosts plus the hosts that
// joined).
func AnalyzeReplay(pr *ProtocolResult, n int, failed mobile.HostID, failTime des.Time) (ReplayOutcome, error) {
	if pr.Trace == nil {
		return ReplayOutcome{}, fmt.Errorf("sim: protocol %s recorded no trace (set Config.RecordTrace)", pr.Name)
	}
	if hosts := pr.Trace.NumHosts(); n != hosts {
		return ReplayOutcome{}, fmt.Errorf("sim: recovery over %d hosts, the %s trace has %d: n must be Trace.NumHosts(), the configured hosts plus the joined ones", n, pr.Name, hosts)
	}
	if failed < 0 || int(failed) >= n {
		return ReplayOutcome{}, fmt.Errorf("sim: failed host %d out of range (the run has %d hosts)", failed, n)
	}
	chains := func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) }
	seed := SeedCut(pr, n, failed)

	cut, steps := recovery.Propagate(pr.Trace, seed)
	var out ReplayOutcome
	out.Plain = recovery.Measure(pr.Trace, cut, chains, failTime, steps)
	out.PlainCut = cut

	// With a stable log the replay-aware recovery needs no coordinated
	// seed line: only the failed host rolls back a priori (the log keeps
	// every other host's state justified), and replay-aware propagation
	// handles the unlogged residue.
	logged := Logged(pr)
	rseed := seed
	if logged != nil {
		rseed = recovery.FailureCut(pr.Store, n, failed)
	}
	rcut, rsteps := recovery.PropagateReplay(pr.Trace, rseed, logged)
	if o := recovery.UnloggedOrphans(pr.Trace, rcut, logged); o != 0 {
		return out, fmt.Errorf("sim: %s replay-aware cut keeps %d unlogged orphan(s)", pr.Name, o)
	}
	out.Replay = recovery.MeasureReplay(pr.Trace, rcut, chains, failTime, rsteps, logged)
	out.ReplayCut = rcut
	return out, nil
}

// ReplayTable evaluates E18: per protocol, the computation a failure
// undoes and the breadth of the rollback, without logging and under both
// logging disciplines, plus what the log itself costs (stable writes,
// stable volume, hand-off transfer). Logging is observational, so the
// pessimistic and optimistic runs of one seed share the identical trace
// and the comparison is exact.
func ReplayTable(base Config, seeds []uint64) (*stats.Table, error) {
	cfg := base
	cfg.Protocols = AllProtocols()
	// Logging earns its keep when communication is dense relative to
	// checkpointing: E18 runs a communication-heavy, mobility-mixed
	// variant of the base workload (more sends between checkpoints means
	// more orphans, deeper dominos, and more to replay).
	cfg.Workload.PComm = 0.3
	cfg.Workload.PSwitch = 0.8
	// Short disconnections: a host parked off-line at the failure instant
	// neither sends nor receives, which would make its failure trivially
	// cheap and mask the comparison.
	cfg.Workload.DisconnectMean = cfg.Workload.TSwitch / 2
	cfg.RecordTrace = true
	const failed mobile.HostID = 0

	tab := stats.NewTable(
		fmt.Sprintf("Message logging & replay recovery (E18; failure of host %d at t=%.0f, %d seed(s), Tswitch=%.0f, Pswitch=%.2f, Pcomm=%.2f)",
			failed, float64(cfg.Horizon), len(seeds), cfg.Workload.TSwitch, cfg.Workload.PSwitch, cfg.Workload.PComm),
		"protocol", "undone (no log)", "undone (optimistic)", "undone (pessimistic)",
		"replayed msgs", "hosts rolled back", "log KB", "flushes opt/pess")
	type acc struct {
		plain, opt, pess, replayed, hostsPlain, hostsPess stats.Mean
		logKB, flushOpt, flushPess                        stats.Mean
	}
	accs := make([]acc, len(cfg.Protocols))
	for _, s := range seeds {
		pessRes, err := runLogged(cfg, s, mlog.Pessimistic)
		if err != nil {
			return nil, err
		}
		optRes, err := runLogged(cfg, s, mlog.Optimistic)
		if err != nil {
			return nil, err
		}
		for i := range pessRes.Protocols {
			pp, op := &pessRes.Protocols[i], &optRes.Protocols[i]
			po, err := AnalyzeReplay(pp, pp.Trace.NumHosts(), failed, cfg.Horizon)
			if err != nil {
				return nil, err
			}
			oo, err := AnalyzeReplay(op, op.Trace.NumHosts(), failed, cfg.Horizon)
			if err != nil {
				return nil, err
			}
			a := &accs[i]
			a.plain.Add(float64(po.Plain.UndoneTime))
			a.pess.Add(float64(po.Replay.UndoneTime))
			a.opt.Add(float64(oo.Replay.UndoneTime))
			a.replayed.Add(float64(po.Replay.ReplayedMessages))
			a.hostsPlain.Add(float64(po.Plain.RolledBackHosts))
			a.hostsPess.Add(float64(po.Replay.RolledBackHosts))
			a.logKB.Add(float64(pp.Log.StableBytes) / 1024)
			a.flushOpt.Add(float64(op.Log.Flushes))
			a.flushPess.Add(float64(pp.Log.Flushes))
		}
	}
	for i, p := range cfg.Protocols {
		a := &accs[i]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", a.plain.Mean()),
			fmt.Sprintf("%.0f", a.opt.Mean()),
			fmt.Sprintf("%.0f", a.pess.Mean()),
			fmt.Sprintf("%.0f", a.replayed.Mean()),
			fmt.Sprintf("%.1f -> %.1f", a.hostsPlain.Mean(), a.hostsPess.Mean()),
			fmt.Sprintf("%.0f", a.logKB.Mean()),
			fmt.Sprintf("%.0f / %.0f", a.flushOpt.Mean(), a.flushPess.Mean()))
	}
	return tab, nil
}

// runLogged executes one seed of the E18 configuration under the given
// logging discipline.
func runLogged(cfg Config, seed uint64, mode mlog.Mode) (*Result, error) {
	c := cfg
	c.Seed = seed
	c.MessageLog = mode
	return Run(c)
}
