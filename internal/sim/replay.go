package sim

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/protoside"
	"mobickpt/internal/recovery"
	"mobickpt/internal/stats"
	"mobickpt/internal/storage"
)

// This file holds the recovery/replay analysis helpers shared by the E8
// and E18 experiments (RecoveryTable, ReplayTable) and the benches.

// Slot is the protocol-side view of a protocol result: what a recovery
// line is computed from (protoside.Slot.RecoveryLine).
func (pr *ProtocolResult) Slot() *protoside.Slot {
	return &protoside.Slot{Name: string(pr.Name), Proto: pr.Instance, Store: pr.Store, Trace: pr.Trace, MLog: pr.MLog}
}

// Logged is the result's MSS message log as the recovery package's replay
// predicate (protoside.Logged), nil when the run did not log.
func Logged(pr *ProtocolResult) recovery.LoggedFunc { return protoside.Logged(pr.MLog) }

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
	sl := pr.Slot()

	cut, steps := sl.RecoveryLine(n, failed, nil)
	var out ReplayOutcome
	out.Plain = recovery.Measure(pr.Trace, cut, chains, failTime, steps)
	out.PlainCut = cut

	logged := Logged(pr)
	rcut, rsteps := sl.RecoveryLine(n, failed, logged)
	if o := recovery.UnloggedOrphans(pr.Trace, rcut, logged); o != 0 {
		return out, fmt.Errorf("sim: %s replay-aware cut keeps %d unlogged orphan(s)", pr.Name, o)
	}
	out.Replay = recovery.MeasureReplay(pr.Trace, rcut, chains, failTime, rsteps, logged)
	out.ReplayCut = rcut
	return out, nil
}

// TraceHorizon is the run length of the two committed tables that record
// a trace (replay, recovery): recording costs memory, and a failure at
// t = 20000 already has the paper's steady state behind it.
const TraceHorizon des.Time = 20000

// ReplayTable evaluates E18: per protocol, the computation a failure
// undoes and the breadth of the rollback, without logging and under both
// logging disciplines, plus what the log itself costs (stable writes,
// stable volume, hand-off transfer). Logging is observational, so the
// pessimistic and optimistic runs of one seed share the identical trace
// and the comparison is exact.
func ReplayTable(base Config, seeds []uint64, workers int) (*stats.Table, error) {
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

	// The two disciplines are the sweep's two points.
	pess, opt := cfg, cfg
	pess.MessageLog, opt.MessageLog = mlog.Pessimistic, mlog.Optimistic
	m, err := protocolMeans([]Config{pess, opt}, seeds, workers, func(res *Result, pr *ProtocolResult) ([]float64, error) {
		o, err := AnalyzeReplay(pr, pr.Trace.NumHosts(), failed, res.Config.Horizon)
		if err != nil {
			return nil, err
		}
		return []float64{float64(o.Plain.UndoneTime), float64(o.Replay.UndoneTime), float64(o.Replay.ReplayedMessages),
			float64(o.Plain.RolledBackHosts), float64(o.Replay.RolledBackHosts),
			float64(pr.Log.StableBytes) / 1024, float64(pr.Log.Flushes)}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable(
		fmt.Sprintf("Message logging & replay recovery (E18; failure of host %d at t=%.0f, %d seed(s), Tswitch=%.0f, Pswitch=%.2f, Pcomm=%.2f)",
			failed, float64(cfg.Horizon), len(seeds), cfg.Workload.TSwitch, cfg.Workload.PSwitch, cfg.Workload.PComm),
		"protocol", "undone (no log)", "undone (optimistic)", "undone (pessimistic)",
		"replayed msgs", "hosts rolled back", "log KB", "flushes opt/pess")
	for i, p := range cfg.Protocols {
		pe, op := m[0][i], m[1][i]
		tab.AddRow(string(p),
			fmt.Sprintf("%.0f", pe[0]),
			fmt.Sprintf("%.0f", op[1]),
			fmt.Sprintf("%.0f", pe[1]),
			fmt.Sprintf("%.0f", pe[2]),
			fmt.Sprintf("%.1f -> %.1f", pe[3], pe[4]),
			fmt.Sprintf("%.0f", pe[5]),
			fmt.Sprintf("%.0f / %.0f", op[6], pe[6]))
	}
	return tab, nil
}

// RecoveryTable evaluates E8 (the paper's §6 "future work"): a failure
// of host failed at the horizon of cfg, and per protocol — UNC included,
// to exhibit the domino effect the communication-induced protocols are
// designed to avoid — how far the computation rolls back: hosts involved,
// undone time and messages, orphan-elimination (domino) steps beyond the
// protocol's on-the-fly recovery line, and the excess over the best any
// recovery scheme could do with the same checkpoints. When cfg logs
// messages the table gains the replay-aware columns (E18's mechanism
// under E8's failure model). Every plain recovery line is observed into
// reg (nil = none), from the pool's workers: a commutative sum.
func RecoveryTable(cfg Config, seeds []uint64, workers int, failed mobile.HostID, reg *obs.Registry) (*stats.Table, error) {
	cfg.Protocols = []ProtocolName{TP, BCS, QBC, UNC}
	cfg.RecordTrace = true
	m, err := protocolMeans([]Config{cfg}, seeds, workers, func(res *Result, pr *ProtocolResult) ([]float64, error) {
		n := pr.Trace.NumHosts()
		out, err := AnalyzeReplay(pr, n, failed, res.Config.Horizon)
		if err != nil {
			return nil, err
		}
		counts := make([]int, n)
		for h := range counts {
			counts[h] = len(pr.Store.Chain(mobile.HostID(h)))
		}
		recovery.ObserveRollback(reg, string(pr.Name), out.PlainCut, counts)
		// The yardstick: the best any recovery scheme could do with
		// this protocol's checkpoints.
		optimal := recovery.MaximalCut(pr.Trace, pr.Store, n, failed)
		mo := recovery.Measure(pr.Trace, optimal,
			func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) },
			res.Config.Horizon, 0)
		pl, re := out.Plain, out.Replay
		return []float64{float64(pl.RolledBackHosts), float64(pl.UndoneTime), float64(pl.MaxRollback),
			float64(pl.UndoneMessages), float64(pl.DominoSteps), float64(pl.UndoneTime - mo.UndoneTime),
			float64(re.RolledBackHosts), float64(re.UndoneTime), float64(re.ReplayedMessages)}, nil
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"protocol", "hosts rolled back", "undone time", "max rollback", "undone msgs", "domino steps", "excess vs optimal"}
	if cfg.MessageLog != mlog.Off {
		cols = append(cols, "hosts (replay)", "undone (replay)", "replayed msgs")
	}
	tab := stats.NewTable(
		fmt.Sprintf("Recovery after failure of host %d at t=%.0f (E8; %d seeds, Tswitch=%.0f, Pswitch=%.2f, H=%.0f%%, log=%s)",
			failed, float64(cfg.Horizon), len(seeds), cfg.Workload.TSwitch, cfg.Workload.PSwitch, cfg.Workload.Heterogeneity*100, cfg.MessageLog),
		cols...)
	for i, p := range cfg.Protocols {
		v := m[0][i]
		// AddRow drops the cells beyond cols: the replay-aware ones, unlogged.
		tab.AddRow(string(p),
			fmt.Sprintf("%.1f", v[0]),
			fmt.Sprintf("%.0f", v[1]),
			fmt.Sprintf("%.0f", v[2]),
			fmt.Sprintf("%.0f", v[3]),
			fmt.Sprintf("%.1f", v[4]),
			fmt.Sprintf("%.0f", v[5]),
			fmt.Sprintf("%.1f", v[6]),
			fmt.Sprintf("%.0f", v[7]),
			fmt.Sprintf("%.0f", v[8]))
	}
	return tab, nil
}
