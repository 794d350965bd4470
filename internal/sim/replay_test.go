package sim

import (
	"fmt"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
)

func protoRow(t *testing.T, name ProtocolName) int {
	t.Helper()
	for i, p := range AllProtocols() {
		if p == name {
			return i
		}
	}
	t.Fatalf("no protocol %s", name)
	return -1
}

// TestReplayTableLoggingReducesUndone is the E18 acceptance check: on
// the same trace, pessimistic logging yields strictly less undone
// computation than no logging for (at least) UNC and BCS, and optimistic
// logging sits between the two extremes (it can at worst match no
// logging, and never beats pessimistic).
func TestReplayTableLoggingReducesUndone(t *testing.T) {
	base, seeds := benchScale()
	tab, err := ReplayTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != len(AllProtocols()) {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	for _, name := range []ProtocolName{UNC, BCS} {
		i := protoRow(t, name)
		none := cell(t, tab, i, 1)
		opt := cell(t, tab, i, 2)
		pess := cell(t, tab, i, 3)
		if pess >= none {
			t.Errorf("%s: pessimistic logging did not reduce undone time: %v >= %v", name, pess, none)
		}
		if opt > none || pess > opt {
			t.Errorf("%s: undone not ordered pess <= opt <= none: %v / %v / %v", name, pess, opt, none)
		}
		if cell(t, tab, i, 4) == 0 {
			t.Errorf("%s: nothing replayed", name)
		}
	}
	// Logging removes the uncoordinated domino entirely, so it must help
	// UNC (long rollbacks) more than CL (frequent coordinated lines).
	unc, cl := protoRow(t, UNC), protoRow(t, CL)
	uncGain := cell(t, tab, unc, 1) - cell(t, tab, unc, 3)
	clGain := cell(t, tab, cl, 1) - cell(t, tab, cl, 3)
	if uncGain <= clGain {
		t.Errorf("UNC gain %v not above CL gain %v", uncGain, clGain)
	}
}

func TestReplayTableDeterministic(t *testing.T) {
	base, _ := benchScale()
	seeds := Seeds(7, 1)
	a, err := ReplayTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < 8; j++ {
			if a.Cell(i, j) != b.Cell(i, j) {
				t.Fatalf("cell (%d,%d) differs: %q vs %q", i, j, a.Cell(i, j), b.Cell(i, j))
			}
		}
	}
}

// TestAnalyzeReplayPessimisticNeverWorse sweeps every protocol: with all
// deliveries stably logged, replay-aware recovery can never undo more
// than plain recovery, and the replay-aware cut rolls back no more
// hosts.
func TestAnalyzeReplayPessimisticNeverWorse(t *testing.T) {
	base, _ := benchScale()
	base.Protocols = AllProtocols()
	base.RecordTrace = true
	base.MessageLog = mlog.Pessimistic
	base.Seed = 3
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		out, err := AnalyzeReplay(pr, base.Mobile.NumHosts, 0, base.Horizon)
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		if out.Replay.UndoneTime > out.Plain.UndoneTime {
			t.Errorf("%s: replay undoes more: %v > %v", pr.Name, out.Replay.UndoneTime, out.Plain.UndoneTime)
		}
		if out.Replay.RolledBackHosts > out.Plain.RolledBackHosts {
			t.Errorf("%s: replay rolls back more hosts: %d > %d", pr.Name, out.Replay.RolledBackHosts, out.Plain.RolledBackHosts)
		}
		// Pessimistic logging leaves no pending suffix anywhere.
		if pr.MLog == nil || pr.Log.Appended == 0 {
			t.Errorf("%s: no log activity recorded", pr.Name)
		}
	}
}

func TestAnalyzeReplayRequiresTrace(t *testing.T) {
	base, _ := benchScale()
	base.Protocols = []ProtocolName{UNC}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeReplay(&res.Protocols[0], base.Mobile.NumHosts, 0, base.Horizon); err == nil {
		t.Fatal("AnalyzeReplay accepted a traceless result")
	}
}

// TestAnalyzeReplayRejectsBadHost pins the `cmd/recovery -failed 99`
// crash: a failed host the run does not have is an error naming the host
// and the host count, not an index panic in recovery.FailureCut.
func TestAnalyzeReplayRejectsBadHost(t *testing.T) {
	base, _ := benchScale()
	base.Protocols = []ProtocolName{QBC}
	base.RecordTrace = true
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Mobile.NumHosts
	for _, failed := range []mobile.HostID{-1, mobile.HostID(n), 99} {
		_, err := AnalyzeReplay(&res.Protocols[0], n, failed, base.Horizon)
		if err == nil {
			t.Fatalf("failed host %d of %d accepted", failed, n)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(int(failed))) || !strings.Contains(msg, fmt.Sprint(n)) {
			t.Errorf("failed host %d: error %q names neither the host nor the host count", failed, msg)
		}
	}
}

// TestAnalyzeReplayWithJoins pins the crash of every recovery analysis on
// a run with joins: cuts sized by Config.Mobile.NumHosts are narrower
// than the trace, which used to end in an out-of-range read inside the
// propagation. The trace's host count is the one width: with it every
// protocol recovers — an initial host and a joined one alike — and the
// configured count is refused with a reason.
func TestAnalyzeReplayWithJoins(t *testing.T) {
	base, _ := benchScale()
	base.Protocols = AllProtocols()
	base.RecordTrace = true
	base.MessageLog = mlog.Optimistic
	base.JoinTimes = []des.Time{500, 1000}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		n := pr.Trace.NumHosts()
		if want := base.Mobile.NumHosts + len(base.JoinTimes); n != want {
			t.Fatalf("%s: trace has %d hosts, want %d", pr.Name, n, want)
		}
		for _, failed := range []mobile.HostID{0, mobile.HostID(n - 1)} {
			out, err := AnalyzeReplay(pr, n, failed, base.Horizon)
			if err != nil {
				t.Fatalf("%s, host %d: %v", pr.Name, failed, err)
			}
			if len(out.PlainCut) != n || len(out.ReplayCut) != n {
				t.Fatalf("%s: cut widths %d/%d, want %d", pr.Name, len(out.PlainCut), len(out.ReplayCut), n)
			}
			if out.PlainCut[failed] == recovery.End || out.ReplayCut[failed] == recovery.End {
				t.Errorf("%s: failed host %d not rolled back", pr.Name, failed)
			}
			if o := recovery.Orphans(pr.Trace, out.PlainCut); o != 0 {
				t.Errorf("%s, host %d: plain cut keeps %d orphans", pr.Name, failed, o)
			}
		}
		_, err := AnalyzeReplay(pr, base.Mobile.NumHosts, 0, base.Horizon)
		if err == nil || !strings.Contains(err.Error(), "joined") {
			t.Errorf("%s: cut width %d on a %d-host trace: err = %v, want a refusal naming the joins", pr.Name, base.Mobile.NumHosts, n, err)
		}
	}
}

// TestTPRecoveryAcrossJoins pins a panic of TP's vector seed: a host
// whose latest checkpoint predates a join stores a vector narrower than
// the world that fails, and VectorCut read past it. An entry beyond the
// vector is a host the checkpoint never heard from (-1), so every host's
// failure recovers, pre-join and joined alike, to a consistent line.
func TestTPRecoveryAcrossJoins(t *testing.T) {
	base, _ := benchScale()
	base.Protocols = []ProtocolName{TP}
	base.RecordTrace = true
	base.MessageLog = mlog.Optimistic
	base.JoinTimes = []des.Time{500, 1000, 2999}
	for seed := uint64(1); seed <= 5; seed++ {
		base.Seed = seed
		res, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		pr := res.Protocol(TP)
		n := pr.Trace.NumHosts()
		for h := 0; h < n; h++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("seed %d, host %d of %d: %v", seed, h, n, p)
					}
				}()
				out, err := AnalyzeReplay(pr, n, mobile.HostID(h), base.Horizon)
				if err != nil {
					t.Fatalf("seed %d, host %d: %v", seed, h, err)
				}
				if o := recovery.Orphans(pr.Trace, out.PlainCut); o != 0 {
					t.Errorf("seed %d, host %d: plain cut keeps %d orphans", seed, h, o)
				}
			}()
		}
	}
}

// Every protocol's recovery seed, with and without a log, is a full-width
// cut that rolls the failed host back; with a log it rolls back nothing
// else.
func TestSeedCutMatchesProtocolLines(t *testing.T) {
	base, _ := benchScale()
	base.Protocols = AllProtocols()
	base.RecordTrace = true
	base.Seed = 5
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Mobile.NumHosts
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		for _, logged := range []bool{false, true} {
			cut := pr.Slot().RecoverySeed(n, 0, logged)
			if len(cut) != n {
				t.Fatalf("%s, logged %v: cut width %d", pr.Name, logged, len(cut))
			}
			if cut[0] == recovery.End {
				t.Errorf("%s, logged %v: failed host not rolled back by seed cut", pr.Name, logged)
			}
			if logged && cut.RolledBack() != 1 {
				t.Errorf("%s: a logged seed rolls back %d hosts, want only the failed one", pr.Name, cut.RolledBack())
			}
		}
	}
}

// TestGCPrunesMessageLog ties the log's garbage collection to the stable
// recovery-line frontier: with periodic GC on, every host's entries
// behind the frontier are reclaimed — more than the hand-offs alone
// reclaim from the switching hosts' — the log/trace reconciliation
// invariants still hold (Checks is on in testConfig), and a post-GC
// failure still recovers with replay.
func TestGCPrunesMessageLog(t *testing.T) {
	c := testConfig()
	c.Horizon = 8000
	c.RecordTrace = true
	c.Workload.PComm = 0.3
	c.MessageLog = mlog.Pessimistic
	handoffs := mustRun(t, c)
	c.GCInterval = 200
	res := mustRun(t, c)
	for _, name := range []ProtocolName{BCS, QBC} {
		pr := res.Protocol(name)
		t.Logf("%s: %+v", name, pr.Log)
		if only := handoffs.Protocol(name).Log.Pruned; pr.Log.Pruned <= only {
			t.Errorf("%s: GC and hand-offs pruned %d log entries, hand-offs alone %d", name, pr.Log.Pruned, only)
		}
		out, err := AnalyzeReplay(pr, c.Mobile.NumHosts, 0, c.Horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Replay.UndoneTime > out.Plain.UndoneTime {
			t.Errorf("%s: replay undone %v exceeds plain %v after GC",
				name, out.Replay.UndoneTime, out.Plain.UndoneTime)
		}
	}
}
