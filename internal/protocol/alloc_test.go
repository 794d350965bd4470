package protocol

import (
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
	"mobickpt/internal/storage"
)

// nopCkpt is a Checkpointer that records nothing; it isolates the
// protocols' own per-message allocation behavior from storage.
func nopCkpt() (Checkpointer, *storage.Record) {
	rec := &storage.Record{}
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		return rec
	}, rec
}

// TestTPMessagePathZeroAlloc proves the message-path guarantee for TP: a
// steady-state send→deliver cycle that raises no vector entry allocates
// nothing. The send shares the view the previous send took and the merge
// finds nothing to log. Host 1 never sends, so it stays in RECV phase and
// no forced checkpoints (which append to the host's history, off the
// message path) occur inside the measured loop.
func TestTPMessagePathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	ckpt, _ := nopCkpt()
	tp := NewTP(4, ckpt, func(mobile.HostID) mobile.MSSID { return 0 })
	tp.Init()
	allocs := testing.AllocsPerRun(100, func() {
		pb := tp.OnSend(0, 1)
		tp.OnDeliver(1, 0, pb)
	})
	if allocs != 0 {
		t.Fatalf("TP message path allocated %v times per message, want 0", allocs)
	}
}

// TestTPDeliverAcceptsValueForm covers the wire path: the live runtime
// decodes piggybacks into the dense value form, which OnDeliver must
// accept interchangeably with the view OnSend returns.
func TestTPDeliverAcceptsValueForm(t *testing.T) {
	ckpt, _ := nopCkpt()
	tp := NewTP(2, ckpt, func(mobile.HostID) mobile.MSSID { return 0 })
	tp.Init()
	pb := tp.OnSend(0, 1).(*TPView).Dense() // as DecodePiggyback produces
	tp.OnDeliver(1, 0, pb)
	if got := tp.DependencyVector(1)[0]; got != pb.Ckpt[0] {
		t.Fatalf("value-form delivery did not merge: dep[0]=%d, want %d", got, pb.Ckpt[0])
	}
}

// TestIndexProtocolsZeroAlloc proves the guarantee for the index family:
// OnSend returns interned boxed values (no per-message boxing even for
// indices ≥ 256, which Go's runtime would otherwise heap-allocate) and a
// non-forcing delivery does no work. Each protocol is driven past index
// 256 first so the test exercises the interning cache, not the runtime's
// small-int static boxes.
func TestIndexProtocolsZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	ckpt, _ := nopCkpt()
	cases := []struct {
		name string
		p    Protocol
		bump func(h mobile.HostID)
	}{
		{"BCS", NewBCS(2, ckpt), nil},
		{"QBC", NewQBC(2, ckpt, nil), nil},
		{"MS", NewMS(2, ckpt), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.p.Init()
			// Push both hosts past the small-int boxing range.
			for i := 0; i < 300; i++ {
				tc.p.OnCellSwitch(0, 0)
				tc.p.OnCellSwitch(1, 0)
			}
			allocs := testing.AllocsPerRun(100, func() {
				pb := tc.p.OnSend(0, 1)
				// Equal indices: the forcing rule does not fire, so the
				// delivery is pure bookkeeping.
				tc.p.OnDeliver(1, 0, pb)
			})
			if allocs != 0 {
				t.Fatalf("%s message path allocated %v times per message, want 0", tc.name, allocs)
			}
		})
	}
}

// TestIndexBoxInterning checks the interned values are correct and
// stable: the same index yields the identical boxed value, and the
// values decode back to their index.
func TestIndexBoxInterning(t *testing.T) {
	var b indexBox
	a1 := b.box(500)
	a2 := b.box(500)
	if a1 != a2 {
		t.Fatal("interned values for the same index differ")
	}
	for _, sn := range []int{0, 1, 255, 256, 500} {
		if got := int(b.box(sn).(IndexPiggyback)); got != sn {
			t.Fatalf("box(%d) = %d", sn, got)
		}
	}
}

// TestIndexPiggybackImmutableInFlight guards against a scratch-buffer
// regression: a piggyback captured before the sender's index advances
// must still carry the old index when delivered later (messages are in
// flight while sn changes).
func TestIndexPiggybackImmutableInFlight(t *testing.T) {
	ckpt, _ := nopCkpt()
	b := NewBCS(2, ckpt)
	b.Init()
	pb := b.OnSend(0, 1) // carries sn 0
	b.OnCellSwitch(0, 0) // sender's index advances to 1 while in flight
	if got := int(pb.(IndexPiggyback)); got != 0 {
		t.Fatalf("in-flight piggyback mutated: carries %d, want 0", got)
	}
	b.OnDeliver(1, 0, pb)
	if b.SequenceNumber(1) != 0 {
		t.Fatalf("stale piggyback forced a checkpoint: receiver sn %d, want 0", b.SequenceNumber(1))
	}
}
