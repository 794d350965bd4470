package check

import (
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/trace"
)

// loggedTrace builds a 2-host trace with k deliveries to host 1 and a
// matching log (recv counts 1..k).
func loggedTrace(t *testing.T, mode mlog.Mode, k int) (*mlog.Log, *trace.Trace) {
	t.Helper()
	lg, err := mlog.New(mlog.DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(2)
	for i := 0; i < k; i++ {
		id := uint64(i)
		tr.RecordSend(id, 0, 1, 1, 0)
		tr.RecordDeliver(id, i+1, 0)
		lg.Append(1, 0, id, i+1, 0, 0)
	}
	return lg, tr
}

func TestLogReconciliationClean(t *testing.T) {
	for _, mode := range []mlog.Mode{mlog.Pessimistic, mlog.Optimistic} {
		lg, tr := loggedTrace(t, mode, 10)
		if vs := LogReconciliation("t", lg, tr, 2); len(vs) != 0 {
			t.Fatalf("%v: unexpected violations: %v", mode, vs)
		}
	}
}

func TestLogReconciliationCleanAfterPrune(t *testing.T) {
	lg, tr := loggedTrace(t, mlog.Pessimistic, 10)
	if n := lg.PruneDelivered(1, 4); n != 4 {
		t.Fatalf("pruned %d", n)
	}
	if vs := LogReconciliation("t", lg, tr, 2); len(vs) != 0 {
		t.Fatalf("pruned prefix flagged: %v", vs)
	}
}

func TestLogReconciliationDetectsMissingEntry(t *testing.T) {
	lg, tr := loggedTrace(t, mlog.Pessimistic, 3)
	// One extra unlogged delivery.
	tr.RecordSend(99, 0, 1, 1, 0)
	tr.RecordDeliver(99, 4, 0)
	vs := LogReconciliation("t", lg, tr, 2)
	if len(vs) == 0 {
		t.Fatal("missing entry not detected")
	}
	if !strings.Contains(vs.Error(), "no log entry") {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestLogReconciliationDetectsMismatch(t *testing.T) {
	lg, err := mlog.New(mlog.DefaultConfig(mlog.Pessimistic))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(2)
	tr.RecordSend(1, 0, 1, 1, 0)
	tr.RecordDeliver(1, 1, 0)
	lg.Append(1, 0, 2 /* wrong id */, 1, 0, 0)
	vs := LogReconciliation("t", lg, tr, 2)
	if len(vs) == 0 {
		t.Fatal("identity mismatch not detected")
	}
}

// A log over the trace's own history reads each delivery's message id and
// sender through its reference and keeps only the receiver position
// itself: one wrong position still fails the reconciliation, and nothing
// else does.
func TestLogReconciliationDetectsWrongReceiverPosition(t *testing.T) {
	for _, wrong := range []bool{false, true} {
		hist := trace.NewHistory(2, 1)
		tr := hist.View()
		lg, err := mlog.Open(mlog.Pessimistic, hist)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			id, at := uint64(i), des.Time(i)
			ord := hist.Append(trace.Event{Kind: trace.Send, At: at, Host: 0, Peer: 1, Msg: id})
			tr.CountSend(1)
			hist.Append(trace.Event{Kind: trace.Deliver, At: at + 0.5, Host: 1, Peer: 0, Msg: id, Arg: ord})
			tr.CountDeliver(i + 1)
			recv := i + 1
			if wrong && i == 1 {
				recv = 5
			}
			lg.Append(1, 0, id, recv, at+0.5, 0)
		}
		vs := LogReconciliation("t", lg, tr, 2)
		if !wrong {
			if len(vs) != 0 {
				t.Fatalf("a log over the trace's history: unexpected violations: %v", vs)
			}
			continue
		}
		if len(vs) != 1 || vs[0].Rule != "log-reconcile" || vs[0].Host != 1 ||
			!strings.Contains(vs[0].Detail, "log entry 1 records receiver position 5, trace has 2") {
			t.Fatalf("one wrong receiver position: got %v", vs)
		}
	}
}

func TestReplayReconciliationClean(t *testing.T) {
	lg, tr := loggedTrace(t, mlog.Pessimistic, 6)
	cut := recovery.Cut{recovery.End, 3}
	replayed := map[mobile.HostID][]mlog.Entry{1: lg.ReplayFrom(1, 3)}
	if vs := ReplayReconciliation("t", lg, tr, cut, replayed); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestReplayReconciliationDetectsViolations(t *testing.T) {
	lg, tr := loggedTrace(t, mlog.Pessimistic, 6)
	cut := recovery.Cut{recovery.End, 3}
	full := lg.ReplayFrom(1, 3) // entries with seq 3,4,5

	// Replaying on a host that did not roll back.
	vs := ReplayReconciliation("t", lg, tr, recovery.NewCut(2),
		map[mobile.HostID][]mlog.Entry{1: full})
	if len(vs) == 0 {
		t.Fatal("replay without rollback not detected")
	}
	// A gap in the replayed sequence.
	vs = ReplayReconciliation("t", lg, tr, cut,
		map[mobile.HostID][]mlog.Entry{1: {full[0], full[2]}})
	if len(vs) == 0 {
		t.Fatal("replay gap not detected")
	}
	// An incomplete replay (missing suffix).
	vs = ReplayReconciliation("t", lg, tr, cut,
		map[mobile.HostID][]mlog.Entry{1: full[:1]})
	if len(vs) == 0 {
		t.Fatal("incomplete replay not detected")
	}
	// A kept (not undone) entry replayed.
	vs = ReplayReconciliation("t", lg, tr, cut,
		map[mobile.HostID][]mlog.Entry{1: lg.ReplayFrom(1, 2)})
	if len(vs) == 0 {
		t.Fatal("replay of kept delivery not detected")
	}
}

func TestReplayReconciliationRejectsUnstableEntry(t *testing.T) {
	lg, err := mlog.New(mlog.Config{Mode: mlog.Optimistic, FlushBatch: 100, EntryBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(2)
	tr.RecordSend(1, 0, 1, 1, 0)
	tr.RecordDeliver(1, 1, 0)
	lg.Append(1, 0, 1, 1, 0, 0) // stays pending: never flushed
	e, ok := lg.EntryAt(1, 0)
	if !ok {
		t.Fatal("the pending entry is not in the log")
	}
	vs := ReplayReconciliation("t", lg, tr, recovery.Cut{recovery.End, 0},
		map[mobile.HostID][]mlog.Entry{1: {e}})
	if len(vs) == 0 {
		t.Fatal("replay of unstable entry not detected")
	}
}

// A log pruned one checkpoint past the frontier answers ReplayFrom with a
// shorter suffix; the reconciliation must notice from the trace that the
// restore undid a delivery nobody replayed. (Comparing the replay with
// the log's own ReplayFrom loses the entry on both sides.)
func TestReplayReconciliationDetectsOverPrune(t *testing.T) {
	const frontier = 4
	cut := recovery.Cut{recovery.End, frontier}

	lg, tr := loggedTrace(t, mlog.Pessimistic, 10)
	lg.PruneDelivered(1, frontier)
	replayed := map[mobile.HostID][]mlog.Entry{1: lg.ReplayFrom(1, frontier)}
	if vs := ReplayReconciliation("t", lg, tr, cut, replayed); len(vs) != 0 {
		t.Fatalf("a log pruned at the frontier is sound, got: %v", vs)
	}

	lg, tr = loggedTrace(t, mlog.Pessimistic, 10)
	lg.PruneDelivered(1, frontier+1)
	replayed = map[mobile.HostID][]mlog.Entry{1: lg.ReplayFrom(1, frontier)}
	vs := ReplayReconciliation("t", lg, tr, cut, replayed)
	if len(vs) == 0 {
		t.Fatal("a log pruned at frontier+1 lost an undone delivery and was accepted")
	}
	if !strings.Contains(vs.Error(), "replayed 5 entries, the trace has 6") {
		t.Fatalf("unexpected violations: %v", vs)
	}

	// A rolled-back host that replays nothing at all is held to the same
	// trace-derived set, whether or not the caller lists it.
	if vs := ReplayReconciliation("t", lg, tr, cut, nil); len(vs) == 0 {
		t.Fatal("a rolled-back host with undone stable deliveries replayed nothing and was accepted")
	}
}
