package recovery

import (
	"testing"

	"mobickpt/internal/mobile"
)

func allLogged(mobile.HostID, int) bool  { return true }
func noneLogged(mobile.HostID, int) bool { return false }

func TestPropagateReplayNilDegeneratesToPropagate(t *testing.T) {
	st, tr := script(t, []string{"cA", "mAB", "cB"})
	_ = st
	seed := Cut{1, End}
	want, wsteps := Propagate(tr, seed)
	got, gsteps := PropagateReplay(tr, seed, nil)
	if gsteps != wsteps || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("nil logged: got %v/%d, want %v/%d", got, gsteps, want, wsteps)
	}
}

func TestPropagateReplayStopsDomino(t *testing.T) {
	// The staircase that drives plain propagation to a total rollback.
	ops := []string{}
	for i := 0; i < 10; i++ {
		ops = append(ops, "mBA", "cA", "mAB", "cB")
	}
	st, tr := script(t, ops)
	seed := FailureCut(st, 2, 0)

	plain, _ := Propagate(tr, seed)
	if plain[0] != 0 || plain[1] != 0 {
		t.Fatalf("staircase should domino to the start, got %v", plain)
	}

	// With every delivery stably logged no receive is orphan-producing:
	// the seed is already consistent and B never rolls back.
	cut, steps := PropagateReplay(tr, seed, allLogged)
	if steps != 0 {
		t.Fatalf("replay-aware propagation took %d steps, want 0", steps)
	}
	if cut[0] != seed[0] || cut[1] != End {
		t.Fatalf("cut = %v, want seed %v", cut, seed)
	}
	if o := UnloggedOrphans(tr, cut, allLogged); o != 0 {
		t.Fatalf("unlogged orphans = %d", o)
	}

	// With nothing logged it matches plain propagation.
	cut, _ = PropagateReplay(tr, seed, noneLogged)
	if cut[0] != plain[0] || cut[1] != plain[1] {
		t.Fatalf("none-logged cut %v differs from plain %v", cut, plain)
	}
}

func TestUnloggedOrphans(t *testing.T) {
	st, tr := script(t, []string{"cA", "mAB", "cB"})
	_ = st
	cut := Cut{1, 2} // the send is undone, the receive kept: one orphan
	if o := Orphans(tr, cut); o != 1 {
		t.Fatalf("orphans = %d", o)
	}
	if o := UnloggedOrphans(tr, cut, allLogged); o != 0 {
		t.Fatalf("logged orphan still counted: %d", o)
	}
	if o := UnloggedOrphans(tr, cut, noneLogged); o != 1 {
		t.Fatalf("unlogged orphans = %d, want 1", o)
	}
	if o := UnloggedOrphans(tr, cut, nil); o != 1 {
		t.Fatalf("nil logged must count plain orphans, got %d", o)
	}
}

func TestMeasureReplayRecoversLoggedSuffix(t *testing.T) {
	st, tr := script(t, []string{"cA", "mAB", "cB"})
	cut := Cut{1, 0}
	plain := Measure(tr, cut, chainsOf(st), 10, 3)

	m := MeasureReplay(tr, cut, chainsOf(st), 10, 3, allLogged)
	if m.RolledBackHosts != 2 || m.DominoSteps != 3 {
		t.Fatalf("metrics %+v", m)
	}
	// B replays its undone receive (delivered at t=2): its frontier moves
	// from the initial checkpoint (t=0) to t=2.
	if m.ReplayedMessages != 1 || m.UndoneMessages != 0 {
		t.Fatalf("replayed %d undone %d", m.ReplayedMessages, m.UndoneMessages)
	}
	if m.ReplayedTime != 2 {
		t.Fatalf("replayed time %v", m.ReplayedTime)
	}
	if m.UndoneTime != plain.UndoneTime-m.ReplayedTime {
		t.Fatalf("undone %v, plain %v, replayed %v", m.UndoneTime, plain.UndoneTime, m.ReplayedTime)
	}
	if m.UndoneTime >= plain.UndoneTime {
		t.Fatal("replay must strictly reduce undone time here")
	}
}

func TestMeasureReplayGapEndsReplay(t *testing.T) {
	// Two deliveries to B are undone; only the first is stably logged.
	st, tr := script(t, []string{"cA", "mAB", "mAB", "cB"})
	cut := Cut{1, 0}
	firstOnly := func(_ mobile.HostID, seq int) bool { return seq < 1 }
	m := MeasureReplay(tr, cut, chainsOf(st), 10, 0, firstOnly)
	if m.ReplayedMessages != 1 || m.UndoneMessages != 1 {
		t.Fatalf("replayed %d undone %d, want 1 and 1", m.ReplayedMessages, m.UndoneMessages)
	}

	// An unlogged delivery breaks determinized replay: later logged
	// entries cannot be replayed either.
	secondOnly := func(_ mobile.HostID, seq int) bool { return seq >= 1 }
	m = MeasureReplay(tr, cut, chainsOf(st), 10, 0, secondOnly)
	if m.ReplayedMessages != 0 || m.UndoneMessages != 2 {
		t.Fatalf("broken replay: replayed %d undone %d, want 0 and 2", m.ReplayedMessages, m.UndoneMessages)
	}
	// With nothing replayable the measure matches the plain one.
	plain := Measure(tr, cut, chainsOf(st), 10, 0)
	if m.UndoneTime != plain.UndoneTime || m.MaxRollback != plain.MaxRollback {
		t.Fatalf("broken replay %+v differs from plain %+v", m, plain)
	}
}
