package protocol_test

import (
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/vclock"
)

// TestTPSnapshotImmutableInFlight pins what a TP piggyback promises, not
// how it is built: sends between vector changes share one view, any
// change (checkpoint, delivery merge, join) makes the next send take a
// new one, and a view in flight keeps reading its send-time vectors
// while its sender checkpoints, merges and starts new frames underneath
// it.
func TestTPSnapshotImmutableInFlight(t *testing.T) {
	ckpt, _ := protocol.NopCkpt()
	tp := protocol.NewTP(3, ckpt, func(mobile.HostID) mobile.MSSID { return 0 })
	tp.Init()

	a := tp.OnSend(0, 1).(*protocol.TPView)
	if b := tp.OnSend(0, 2).(*protocol.TPView); a != b {
		t.Fatal("two sends without an intervening change did not share a view")
	}
	if c, r := tp.SnapshotStats(); c != 1 || r != 1 {
		t.Fatalf("stats after two sends = (%d new, %d shared), want (1, 1)", c, r)
	}
	want := a.Dense()

	// A checkpoint changes host 0's vectors: the next send must carry the
	// new interval, the one in flight the old.
	tp.OnCellSwitch(0, 0)
	c := tp.OnSend(0, 1).(*protocol.TPView)
	if got := c.Dense().Ckpt[0]; got != want.Ckpt[0]+1 {
		t.Fatalf("send after a checkpoint carries interval %d, want %d", got, want.Ckpt[0]+1)
	}
	// Another host's merge leaves host 0's vectors, and so its view, alone.
	tp.OnDeliver(1, 0, c)
	if d := tp.OnSend(0, 1).(*protocol.TPView); d != c {
		t.Fatal("host 0 took a new view after host 1's merge")
	}
	// A delivery *to* the sender that raises an entry changes them.
	tp.OnDeliver(0, 1, tp.OnSend(1, 0))
	f := tp.OnSend(0, 2).(*protocol.TPView)
	if f == c {
		t.Fatal("view survived a delivery merge")
	}
	if got, cur := f.Dense().Ckpt, tp.DependencyVector(0); !got.Equal(cur) {
		t.Fatalf("send carries %v, host holds %v", got, cur)
	}

	// Three-entry vectors start a new frame every few changes: run host 0
	// through several frames, then a join, with a still in flight.
	for i := 0; i < 10; i++ {
		tp.OnCellSwitch(0, 0)
		tp.OnCellSwitch(1, 0)
		tp.OnDeliver(0, 1, tp.OnSend(1, 0))
	}
	tp.OnJoin(3)
	if g := tp.OnSend(0, 3).(*protocol.TPView).Dense(); len(g.Ckpt) != 4 || g.Ckpt[3] != -1 {
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
	ckpt, _ := protocol.NopCkpt()
	tp := protocol.NewTP(3, ckpt, func(h mobile.HostID) mobile.MSSID { return mobile.MSSID(h) })
	tp.Init()
	tp.OnCellSwitch(2, 2) // host 2's checkpoint 1, at station 2
	for _, pb := range []protocol.TPPiggyback{
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
	tp.OnDeliver(1, 0, protocol.TPPiggyback{Ckpt: vclock.Vector{0, 0, 1}, Loc: vclock.Vector{0, 1, 2}})
	if got := tp.LocationVector(1); !got.Equal(vclock.Vector{0, 1, 2}) {
		t.Fatalf("accepted delivery left host 1 at LOC %v, want [0 1 2]", got)
	}
}

// TestTPLogOverflow drives TP and the full-copy reference at width 3
// through the two edges of the logging rule: a delivery whose raises
// overflow the last free slot of a host's log, which must start a new
// frame, and — after a fourth host joins — a width-4 merge that
// overflows a log made at width 3. Every view sent and every checkpoint
// taken, before and after both edges, must still read the reference's
// vectors at the end, and a merge that raises nothing must leave the
// host's last send view shared.
func TestTPLogOverflow(t *testing.T) {
	got, want := newTPWorld(3, false), newTPWorld(3, true)
	tp := got.tp.(*protocol.TP)
	var sent []struct{ got, want any } // every send's piggyback, by message
	step := func(op tpOp) {
		t.Helper()
		if op.kind == tpDeliver {
			got.tp.OnDeliver(op.h, op.peer, sent[op.msg].got)
			want.tp.OnDeliver(op.h, op.peer, sent[op.msg].want)
		} else if pb, ref := got.apply(op), want.apply(op); op.kind == tpSend {
			sent = append(sent, struct{ got, want any }{pb, ref})
		}
		if diff := got.observe(op.h).diff(want.observe(op.h)); diff != "" {
			t.Fatalf("%+v: host %d: %s", op, op.h, diff)
		}
	}
	send := func(from, to mobile.HostID) int {
		t.Helper()
		step(tpOp{kind: tpSend, h: from, peer: to})
		return len(sent) - 1
	}
	deliver := func(to, from mobile.HostID, msg int) {
		t.Helper()
		step(tpOp{kind: tpDeliver, h: to, peer: from, msg: msg})
	}
	cellSwitch := func(h mobile.HostID, mss mobile.MSSID) {
		t.Helper()
		step(tpOp{kind: tpSwitch, h: h, mss: mss})
	}
	shape := func(h mobile.HostID, frame, length, capacity int) {
		t.Helper()
		if f, l, c := tp.LogShape(h); f != frame || l != length || c != capacity {
			t.Fatalf("host %d: frame %d, log %d of %d; want frame %d, log %d of %d", h, f, l, c, frame, length, capacity)
		}
	}

	// Host 0's one-record initial log overflows at its first own bump; two
	// bumps later its 3-wide log, still with no frame, has one free slot.
	shape(0, 0, 1, 1)
	cellSwitch(0, 1)
	shape(0, 0, 1, 3)
	cellSwitch(0, 2)
	shape(0, 0, 2, 3)
	held := send(0, 2)
	// Host 1's first merge overflows its initial log knowing two of three
	// entries: more than half, so it starts a frame.
	deliver(1, 2, send(2, 1))
	shape(1, 3, 0, 3)
	// Host 0 is in SEND phase: the delivery forces a checkpoint, whose bump
	// takes the free slot, and its merge raises the other two entries.
	deliver(0, 1, send(1, 0))
	shape(0, 3, 0, 3)

	step(tpOp{kind: tpJoin, h: 3, mss: 4})
	cellSwitch(1, 5)
	deliver(3, 1, send(1, 3))
	cellSwitch(0, 2)
	cellSwitch(0, 6)
	shape(0, 3, 2, 3)
	// Host 3 knows host 1's checkpoint 1 and its own 0, neither of which
	// host 0 does: two raises at width 4 into one free slot of a log made
	// at width 3.
	deliver(0, 3, send(3, 0))
	shape(0, 4, 0, 4)
	deliver(2, 0, held) // a pre-join view into a 4-wide host

	for i, f := range sent {
		g, w := f.got.(*protocol.TPView).Dense(), f.want.(protocol.TPPiggyback)
		if !g.Ckpt.Equal(w.Ckpt) || !g.Loc.Equal(w.Loc) {
			t.Errorf("message %d reads %v / %v, sent as %v / %v", i, g.Ckpt, g.Loc, w.Ckpt, w.Loc)
		}
	}
	for h := range want.station {
		a, b := got.store.Chain(mobile.HostID(h)), want.store.Chain(mobile.HostID(h))
		for k := range b {
			m, ok := got.tp.Meta(a[k])
			ref, _ := want.tp.Meta(b[k])
			if !ok || !m.Ckpt.Equal(ref.Ckpt) || !m.Loc.Equal(ref.Loc) {
				t.Errorf("checkpoint %s recorded with %v / %v (ok=%v), want %v / %v",
					b[k].ID(), m.Ckpt, m.Loc, ok, ref.Ckpt, ref.Loc)
			}
		}
	}

	// A merge that raises nothing leaves host 0's send view shared.
	stale := sent[held].got.(*protocol.TPView)
	a := tp.OnSend(0, 2)
	tp.MergeView(0, stale)
	if b := tp.OnSend(0, 2); a != b {
		t.Fatal("a merge that raised nothing cleared the host's send view")
	}
}
