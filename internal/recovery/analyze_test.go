package recovery_test

import (
	"reflect"
	"runtime"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
	"mobickpt/internal/recovery"
	"mobickpt/internal/sim"
	"mobickpt/internal/storage"
)

// replayRecoveryRun is the repository benchmark's replay-recovery
// workload (bench/README.md) at the given horizon: a communication-heavy
// 50-host run recording its trace and logging every delivery, under the
// three protocols whose recoveries differ most — QBC's index lines,
// UNC's dominos, TP's vector seeds.
func replayRecoveryRun(t *testing.T, horizon des.Time, mode mlog.Mode) *sim.Result {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Mobile.NumHosts = 50
	cfg.Mobile.NumMSS = 25
	cfg.Horizon = horizon
	cfg.Protocols = []sim.ProtocolName{sim.QBC, sim.UNC, sim.TP}
	cfg.Workload.PComm = 0.3
	cfg.Workload.PSwitch = 0.8
	cfg.Workload.DisconnectMean = cfg.Workload.TSwitch / 2
	cfg.RecordTrace = true
	cfg.MessageLog = mode
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// analyzeReference is sim.AnalyzeReplay, statement for statement, over
// the full-scan reference implementations.
func analyzeReference(t *testing.T, pr *sim.ProtocolResult, failed mobile.HostID, failTime des.Time) sim.ReplayOutcome {
	t.Helper()
	n := pr.Trace.NumHosts()
	chains := func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) }
	sl := pr.Slot()

	cut, steps := recovery.PropagateReference(pr.Trace, sl.RecoverySeed(n, failed, false), nil)
	var out sim.ReplayOutcome
	out.Plain = recovery.MeasureReference(pr.Trace, cut, chains, failTime, steps)
	out.PlainCut = cut

	logged := sim.Logged(pr)
	rcut, rsteps := recovery.PropagateReference(pr.Trace, sl.RecoverySeed(n, failed, logged != nil), logged)
	if o := recovery.UnloggedOrphansReference(pr.Trace, rcut, logged); o != 0 {
		t.Fatalf("%s, host %d: reference replay-aware cut keeps %d unlogged orphan(s)", pr.Name, failed, o)
	}
	out.Replay = recovery.MeasureReplayReference(pr.Trace, rcut, chains, failTime, rsteps, logged)
	out.ReplayCut = rcut
	return out
}

// TestAnalyzeReplayMatchesOracle gates what the benchmark's golden files
// do not: replay-recovery times its 150 recoveries and discards their
// outcomes. Here every host's failure under every protocol of that
// workload must come out of sim.AnalyzeReplay — cuts, step counts, every
// metrics field — exactly as the full-scan references compute it, with
// every delivery stable (the workload's pessimistic log), with a stable
// prefix only (optimistic) and with no log.
func TestAnalyzeReplayMatchesOracle(t *testing.T) {
	modes := []mlog.Mode{mlog.Pessimistic, mlog.Optimistic, mlog.Off}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, mode := range modes {
		res := replayRecoveryRun(t, 1500, mode)
		for i := range res.Protocols {
			pr := &res.Protocols[i]
			n := pr.Trace.NumHosts()
			undone := 0
			for h := 0; h < n; h++ {
				failed := mobile.HostID(h)
				got, err := sim.AnalyzeReplay(pr, n, failed, res.Config.Horizon)
				if err != nil {
					t.Fatalf("%s log, %s, host %d: %v", mode, pr.Name, h, err)
				}
				if want := analyzeReference(t, pr, failed, res.Config.Horizon); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s log, %s, host %d:\n got %+v\nwant %+v", mode, pr.Name, h, got, want)
				}
				undone += got.Plain.UndoneMessages
			}
			if undone == 0 {
				t.Errorf("%s log, %s: no failure undid a single message of %d; the comparison is vacuous", mode, pr.Name, pr.Trace.Len())
			}
		}
	}
}

// TestRecoverAllocs gates the cost model of a recovery on a warmed
// index: one sim.AnalyzeReplay allocates for the hosts (cuts, the seed
// line, TP's vectors) and for what the failure undoes, never for the
// trace — the tables that are O(trace) belong to the index and are built
// once. Doubling the run doubles the trace; under QBC with every delivery
// logged a failure undoes a bounded stretch of it, so the bytes per
// recovery must stay put (they were 3 x 8 B per trace event for the
// delivery ordinals alone, plus two per-sender send tables). UNC's domino
// undoes a share of the whole trace, so its bytes grow with it; the
// sweep's two bitmaps are 1 bit per event each, and the bound is 1 B per
// event (the min-heap they replace took 8.9 and 10.4).
func TestRecoverAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	type cost struct {
		bytes  float64 // per recovery
		events int     // in the trace
	}
	perRecovery := func(horizon des.Time) (qbc, unc cost) {
		res := replayRecoveryRun(t, horizon, mlog.Pessimistic)
		measure := func(pr *sim.ProtocolResult) cost {
			n := pr.Trace.NumHosts()
			pr.Trace.Index()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for h := 0; h < n; h++ {
				if _, err := sim.AnalyzeReplay(pr, n, mobile.HostID(h), horizon); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return cost{float64(after.TotalAlloc-before.TotalAlloc) / float64(n), pr.Trace.Len()}
		}
		return measure(res.Protocol(sim.QBC)), measure(res.Protocol(sim.UNC))
	}
	small, smallUNC := perRecovery(2000)
	large, largeUNC := perRecovery(4000)
	t.Logf("QBC bytes per recovery: %.0f over %d events, %.0f over %d events", small.bytes, small.events, large.bytes, large.events)
	if large.events < 3*small.events/2 {
		t.Fatalf("trace grew from %d to %d events only; the comparison needs it to double", small.events, large.events)
	}
	if large.bytes > 1.25*small.bytes {
		t.Errorf("a recovery allocates %.0f B on %d events and %.0f B on %d: it grows with the trace", small.bytes, small.events, large.bytes, large.events)
	}
	if large.bytes > float64(large.events) {
		t.Errorf("a recovery allocates %.0f B, over 1 B per trace event (%d)", large.bytes, large.events)
	}
	for _, c := range []cost{smallUNC, largeUNC} {
		perEvent := c.bytes / float64(c.events)
		t.Logf("UNC: %.0f B per recovery over %d events, %.2f B per event", c.bytes, c.events, perEvent)
		if perEvent > 1 {
			t.Errorf("a UNC recovery allocates %.2f B per trace event over %d events, want at most 1", perEvent, c.events)
		}
	}
}
