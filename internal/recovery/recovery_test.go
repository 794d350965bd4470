package recovery

import (
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// script builds a two-host execution from a tiny DSL: "cA" = checkpoint
// of host A, "mAB" = message A->B delivered immediately. It returns the
// store (indices = per-host checkpoint counter, BCS-free) and the trace.
func script(t *testing.T, ops []string) (*storage.Store, *trace.Trace) {
	t.Helper()
	st := storage.NewStore(storage.DefaultCostModel())
	tr := trace.New(2)
	count := map[byte]int{'A': 0, 'B': 0}
	host := func(b byte) mobile.HostID { return mobile.HostID(b - 'A') }
	var id uint64
	now := des.Time(0)
	// Initial checkpoints.
	for _, hb := range []byte{'A', 'B'} {
		st.Take(host(hb), 0, 0, storage.Initial, now)
		count[hb]++
	}
	for _, op := range ops {
		now++
		switch op[0] {
		case 'c':
			hb := op[1]
			st.Take(host(hb), 0, count[hb], storage.Basic, now)
			count[hb]++
		case 'm':
			from, to := op[1], op[2]
			tr.RecordSend(id, host(from), host(to), count[from], now)
			tr.RecordDeliver(id, count[to], now)
			id++
		default:
			t.Fatalf("bad op %q", op)
		}
	}
	return st, tr
}

func chainsOf(st *storage.Store) func(mobile.HostID) []*storage.Record {
	return func(h mobile.HostID) []*storage.Record { return st.Chain(h) }
}

func TestCutBasics(t *testing.T) {
	c := NewCut(3)
	if c.RolledBack() != 0 {
		t.Fatal("fresh cut must be all End")
	}
	c[1] = 2
	cl := c.Clone()
	cl[1] = 5
	if c[1] != 2 {
		t.Fatal("clone aliases")
	}
	if c.RolledBack() != 1 {
		t.Fatal("rolled back count wrong")
	}
}

func TestOrphanDetection(t *testing.T) {
	// A checkpoints, then sends to B; B receives, then B checkpoints.
	st, tr := script(t, []string{"cA", "mAB", "cB"})
	_ = st
	// Cut at (A=1, B=2): send after cA(ord 1) undone, receive before
	// cB(ord 2)... wait: A's send has SendCount=2 > 1 -> undone; B's
	// receive has RecvCount=1 <= 2 -> kept. Orphan.
	if n := Orphans(tr, Cut{1, 2}); n != 1 {
		t.Fatalf("orphans = %d, want 1", n)
	}
	// Cut at (A=2, B=2) keeps the send: consistent.
	if n := Orphans(tr, Cut{2, 2}); n != 0 {
		t.Fatalf("orphans = %d, want 0", n)
	}
	// Cut at (A=1, B=0) undoes both sides: consistent.
	if n := Orphans(tr, Cut{1, 0}); n != 0 {
		t.Fatalf("orphans = %d, want 0", n)
	}
	// End cuts are always consistent.
	if n := Orphans(tr, NewCut(2)); n != 0 {
		t.Fatal("End cut cannot have orphans")
	}
}

func TestPropagateFixesOrphan(t *testing.T) {
	st, tr := script(t, []string{"cA", "mAB", "cB"})
	_ = st
	cut, steps := Propagate(tr, Cut{1, End})
	if Orphans(tr, cut) != 0 {
		t.Fatal("propagation must reach consistency")
	}
	if steps != 1 {
		t.Fatalf("steps = %d, want 1", steps)
	}
	// B rolled back to the checkpoint preceding the receive: the initial.
	if cut[1] != 0 {
		t.Fatalf("B restored ordinal %d, want 0", cut[1])
	}
}

func TestPropagateDominoEffect(t *testing.T) {
	// The classic staircase: in every round B sends before it receives
	// (the interval structure uncoordinated checkpointing permits), and
	// each checkpoint separates the peer's receive from the next send:
	//
	//	round r:  B --m'--> A ; A checkpoints ; A --m--> B ; B checkpoints
	//
	// Undoing A's send of round r orphans B's receive, B rolls under its
	// round-r checkpoint, undoing its send m' of round r, which orphans
	// A's receive, and so on down to the initial states.
	ops := []string{}
	for i := 0; i < 10; i++ {
		ops = append(ops, "mBA", "cA", "mAB", "cB")
	}
	st, tr := script(t, ops)
	// A crashes: restore its latest checkpoint.
	seed := FailureCut(st, 2, 0)
	cut, steps := Propagate(tr, seed)
	if Orphans(tr, cut) != 0 {
		t.Fatal("not consistent")
	}
	// The domino drives both hosts all the way to their initial states.
	if cut[0] != 0 || cut[1] != 0 {
		t.Fatalf("expected total rollback, got %v", cut)
	}
	if steps < 10 {
		t.Fatalf("staircase should need many steps, got %d", steps)
	}
}

func TestPropagateNoOrphansNoSteps(t *testing.T) {
	st, tr := script(t, []string{"mAB", "cA", "cB"})
	seed := FailureCut(st, 2, 0)
	cut, steps := Propagate(tr, seed)
	if steps != 0 {
		t.Fatalf("steps = %d", steps)
	}
	if cut.RolledBack() != 1 {
		t.Fatal("only the failed host rolls back")
	}
}

func TestFailureCut(t *testing.T) {
	st, _ := script(t, []string{"cA"})
	cut := FailureCut(st, 2, 0)
	if cut[0] != 1 || cut[1] != End {
		t.Fatalf("cut = %v", cut)
	}
	// Host with no checkpoints at all restores ordinal 0 by convention.
	empty := storage.NewStore(storage.DefaultCostModel())
	cut = FailureCut(empty, 2, 1)
	if cut[1] != 0 {
		t.Fatalf("cut = %v", cut)
	}
}

func TestIndexCut(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	// Host 0: indices 0,1,3 (jump). Host 1: indices 0,1. Host 2: index 0.
	st.Take(0, 0, 0, storage.Initial, 0)
	st.Take(0, 0, 1, storage.Basic, 1)
	st.Take(0, 0, 3, storage.Forced, 2)
	st.Take(1, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 1, storage.Basic, 1)
	st.Take(2, 0, 0, storage.Initial, 0)
	cut := IndexCut(st, 3, 2)
	// Host 0: first index >= 2 is the jump checkpoint at ordinal 2.
	// Host 1: never reached 2 -> End. Host 2: never -> End.
	if cut[0] != 2 || cut[1] != End || cut[2] != End {
		t.Fatalf("cut = %v", cut)
	}
	cut = IndexCut(st, 3, 1)
	if cut[0] != 1 || cut[1] != 1 || cut[2] != End {
		t.Fatalf("cut = %v", cut)
	}
}

func TestLatestIndexCut(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	st.Take(0, 0, 0, storage.Initial, 0)
	st.Take(0, 0, 2, storage.Forced, 1)
	st.Take(1, 0, 0, storage.Initial, 0)
	cut := LatestIndexCut(st, 2, 0)
	if cut[0] != 1 {
		t.Fatalf("failed host restores ordinal %d", cut[0])
	}
	if cut[1] != End {
		t.Fatalf("host 1 never reached index 2: %v", cut)
	}
	empty := storage.NewStore(storage.DefaultCostModel())
	cut = LatestIndexCut(empty, 2, 0)
	if cut[0] != End || cut[1] != End {
		t.Fatalf("cut = %v", cut)
	}
}

func TestVectorCut(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	// TP-style: indices are per-host checkpoint ordinals.
	st.Take(0, 0, 0, storage.Initial, 0)
	st.Take(0, 0, 1, storage.Basic, 1)
	st.Take(0, 0, 2, storage.Forced, 2)
	st.Take(1, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 1, storage.Basic, 1)
	st.Take(2, 0, 0, storage.Initial, 0)
	// The latest checkpoint depends on host 1 interval 0, nothing of host 2.
	cut := VectorCut(st, []int{2, 0, -1}, 3, 0)
	if cut[0] != 2 {
		t.Fatalf("failed host ordinal %d", cut[0])
	}
	// Host 1 restores its first checkpoint with index > 0, i.e. ordinal 1.
	if cut[1] != 1 {
		t.Fatalf("host 1 ordinal %d", cut[1])
	}
	// Host 2: first index > -1 is its initial checkpoint.
	if cut[2] != 0 {
		t.Fatalf("host 2 ordinal %d", cut[2])
	}
	// A vector taken before hosts 1 and 2 joined: neither was heard from,
	// so both restore their first checkpoint.
	cut = VectorCut(st, []int{2}, 3, 0)
	if cut[0] != 2 || cut[1] != 0 || cut[2] != 0 {
		t.Fatalf("cut = %v", cut)
	}
}

func TestMeasure(t *testing.T) {
	st, tr := script(t, []string{"cA", "mAB", "cB"})
	// ops run at times 1,2,3; failure at time 10.
	cut := Cut{1, 0}
	m := Measure(tr, cut, chainsOf(st), 10, 3)
	if m.RolledBackHosts != 2 {
		t.Fatalf("rolled back %d", m.RolledBackHosts)
	}
	// A restores its basic checkpoint at t=1 (lost 9); B restores the
	// initial at t=0 (lost 10).
	if m.UndoneTime != 19 {
		t.Fatalf("undone time %v", m.UndoneTime)
	}
	if m.MaxRollback != 10 {
		t.Fatalf("max rollback %v", m.MaxRollback)
	}
	// B's receive (RecvCount=1 > 0) is undone.
	if m.UndoneMessages != 1 {
		t.Fatalf("undone messages %d", m.UndoneMessages)
	}
	if m.DominoSteps != 3 {
		t.Fatalf("domino steps %d", m.DominoSteps)
	}
}

func TestMeasureEndCut(t *testing.T) {
	st, tr := script(t, []string{"mAB"})
	m := Measure(tr, NewCut(2), chainsOf(st), 10, 0)
	if m.RolledBackHosts != 0 || m.UndoneTime != 0 || m.UndoneMessages != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func BenchmarkPropagate(b *testing.B) {
	ops := []string{}
	for i := 0; i < 200; i++ {
		ops = append(ops, "mBA", "cA", "mAB", "cB")
	}
	st, tr := script(&testing.T{}, ops)
	seed := FailureCut(st, 2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Propagate(tr, seed)
	}
}

func TestMaximalCutDominatesProtocolLines(t *testing.T) {
	// Staircase trace: the maximal cut from A's crash must dominate any
	// other consistent cut with the same failed-host restore point.
	ops := []string{}
	for i := 0; i < 5; i++ {
		ops = append(ops, "mBA", "cA", "mAB", "cB")
	}
	st, tr := script(t, ops)
	maximal := MaximalCut(tr, st, 2, 0)
	if Orphans(tr, maximal) != 0 {
		t.Fatal("maximal cut not consistent")
	}
	// Any stricter consistent cut is dominated.
	stricter := Cut{maximal[0], 0}
	if Orphans(tr, stricter) == 0 && !maximal.Dominates(stricter) {
		t.Fatal("maximal cut must dominate stricter consistent cuts")
	}
}

func TestCutDominates(t *testing.T) {
	a := Cut{3, End}
	b := Cut{2, 5}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("dominates wrong")
	}
	if !a.Dominates(a) {
		t.Fatal("not reflexive")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch must panic")
		}
	}()
	a.Dominates(Cut{1})
}
