package protocol

import (
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/vclock"
)

// TestTPSnapshotImmutableInFlight pins what a TP piggyback promises, not
// how it is built: sends between vector changes share one view, any
// change (checkpoint, delivery merge, join) makes the next send take a
// new one, and a view in flight keeps reading its send-time vectors
// while its sender checkpoints, merges and compacts underneath it.
func TestTPSnapshotImmutableInFlight(t *testing.T) {
	ckpt, _ := nopCkpt()
	tp := NewTP(3, ckpt, func(mobile.HostID) mobile.MSSID { return 0 })
	tp.Init()

	a := tp.OnSend(0, 1).(*TPView)
	if b := tp.OnSend(0, 2).(*TPView); a != b {
		t.Fatal("two sends without an intervening change did not share a view")
	}
	if c, r := tp.SnapshotStats(); c != 1 || r != 1 {
		t.Fatalf("stats after two sends = (%d new, %d shared), want (1, 1)", c, r)
	}
	want := a.Dense()

	// A checkpoint changes host 0's vectors: the next send must carry the
	// new interval, the one in flight the old.
	tp.OnCellSwitch(0, 0)
	c := tp.OnSend(0, 1).(*TPView)
	if got := c.Dense().Ckpt[0]; got != want.Ckpt[0]+1 {
		t.Fatalf("send after a checkpoint carries interval %d, want %d", got, want.Ckpt[0]+1)
	}
	// Another host's merge leaves host 0's vectors, and so its view, alone.
	tp.OnDeliver(1, 0, c)
	if d := tp.OnSend(0, 1).(*TPView); d != c {
		t.Fatal("host 0 took a new view after host 1's merge")
	}
	// A delivery *to* the sender that raises an entry changes them.
	tp.OnDeliver(0, 1, tp.OnSend(1, 0))
	f := tp.OnSend(0, 2).(*TPView)
	if f == c {
		t.Fatal("view survived a delivery merge")
	}
	if got, cur := f.Dense().Ckpt, tp.DependencyVector(0); !got.Equal(cur) {
		t.Fatalf("send carries %v, host holds %v", got, cur)
	}

	// Three-entry vectors compact every three changes: run host 0 through
	// several frames, then a join, with a still in flight.
	for i := 0; i < 10; i++ {
		tp.OnCellSwitch(0, 0)
		tp.OnCellSwitch(1, 0)
		tp.OnDeliver(0, 1, tp.OnSend(1, 0))
	}
	tp.OnJoin(3)
	if g := tp.OnSend(0, 3).(*TPView).Dense(); len(g.Ckpt) != 4 || g.Ckpt[3] != -1 {
		t.Fatalf("post-join send carries %v, want four entries ending in -1", g.Ckpt)
	}
	if got := a.Dense(); !got.Ckpt.Equal(want.Ckpt) || !got.Loc.Equal(want.Loc) {
		t.Fatalf("in-flight view now reads %v / %v, sent as %v / %v", got.Ckpt, got.Loc, want.Ckpt, want.Loc)
	}
	// The pre-join view still merges (ragged widths) and raises nothing
	// host 2 has not already seen through host 1.
	tp.OnDeliver(2, 0, a)
	if copies, reuses := tp.SnapshotStats(); copies+reuses != 17 {
		t.Fatalf("stats count %d sends, want 17", copies+reuses)
	}
}

// TestTPRejectsEntriesBeyondChangeLog: change-log records are 32 bits
// wide and LOC is looked up, not stored, so a dense piggyback off the
// wire must name checkpoints its hosts recorded, beside the stations
// they were taken at. One that carries a value beyond 32 bits, names a
// checkpoint never taken or places one at another station must be
// refused whole, never stored truncated or in part.
func TestTPRejectsEntriesBeyondChangeLog(t *testing.T) {
	ckpt, _ := nopCkpt()
	tp := NewTP(3, ckpt, func(h mobile.HostID) mobile.MSSID { return mobile.MSSID(h) })
	tp.Init()
	tp.OnCellSwitch(2, 2) // host 2's checkpoint 1, at station 2
	for _, pb := range []TPPiggyback{
		{Ckpt: vclock.Vector{1 << 40, 0, 0}, Loc: vclock.Vector{0, 1, 2}},
		{Ckpt: vclock.Vector{5, 0, 0}, Loc: vclock.Vector{1 << 31, 1, 2}},
		// Host 0 has taken checkpoint 0 only; host 2's entry is valid.
		{Ckpt: vclock.Vector{1, 0, 1}, Loc: vclock.Vector{0, 1, 2}},
		// Host 2 took checkpoint 1 at station 2, not 0.
		{Ckpt: vclock.Vector{0, 0, 1}, Loc: vclock.Vector{0, 1, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("delivery of %v / %v did not panic", pb.Ckpt, pb.Loc)
				}
			}()
			tp.OnDeliver(1, 0, pb)
		}()
		if got := tp.DependencyVector(1); !got.Equal(vclock.Vector{-1, 0, -1}) {
			t.Fatalf("rejected delivery of %v / %v left host 1 at %v", pb.Ckpt, pb.Loc, got)
		}
	}
	// The same vectors with the recorded station are accepted.
	tp.OnDeliver(1, 0, TPPiggyback{Ckpt: vclock.Vector{0, 0, 1}, Loc: vclock.Vector{0, 1, 2}})
	if got := tp.LocationVector(1); !got.Equal(vclock.Vector{0, 1, 2}) {
		t.Fatalf("accepted delivery left host 1 at LOC %v, want [0 1 2]", got)
	}
}
