package statestore

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"mobickpt/internal/race"
	"mobickpt/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewHostState(4)
	msg := []byte("hello across a page boundary")
	if err := s.Write(PageSize-5, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := s.Read(PageSize-5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// Two pages were touched.
	if s.DirtyPages() != 2 {
		t.Fatalf("dirty = %d", s.DirtyPages())
	}
}

func TestOutOfRange(t *testing.T) {
	s := NewHostState(1)
	if err := s.Write(PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("overrun write must fail")
	}
	if err := s.Write(-1, []byte{1}); err == nil {
		t.Fatal("negative offset must fail")
	}
	if err := s.Read(PageSize, make([]byte, 1)); err == nil {
		t.Fatal("overrun read must fail")
	}
}

func TestNewHostStatePanicsOnZeroPages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHostState(0)
}

func TestCheckpointClearsDirty(t *testing.T) {
	s := NewHostState(4)
	s.Write(0, []byte{1})
	d := s.Checkpoint(0, true)
	if !d.Full || len(d.Pages) != 4 {
		t.Fatalf("full delta wrong: %+v", d)
	}
	if s.DirtyPages() != 0 {
		t.Fatal("checkpoint must clear dirty set")
	}
	// Next incremental delta carries only what changed since.
	s.Write(2*PageSize, []byte{7})
	d2 := s.Checkpoint(1, false)
	if d2.Full || len(d2.Pages) != 1 || d2.Pages[0].Index != 2 {
		t.Fatalf("incremental delta wrong: %+v", d2)
	}
	if d2.Bytes() != PageSize {
		t.Fatalf("bytes = %d", d2.Bytes())
	}
}

func TestDeltaPagesAreCopies(t *testing.T) {
	s := NewHostState(1)
	s.Write(0, []byte{42})
	d := s.Checkpoint(0, true)
	s.Write(0, []byte{99})
	if d.Pages[0].Data[0] != 42 {
		t.Fatal("delta aliases live state")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewHostState(3)
	s.Write(100, []byte("before"))
	img := s.Snapshot()
	s.Write(100, []byte("after!"))
	if err := s.Restore(img); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	s.Read(100, buf)
	if string(buf) != "before" {
		t.Fatalf("restored %q", buf)
	}
	if err := s.Restore([]byte{1}); err == nil {
		t.Fatal("wrong-size image must fail")
	}
}

// Equal is Snapshot's comparison without the copy: it must agree with
// comparing against a fresh snapshot on every image — same, one byte off
// in any page, wrong length.
func TestHostStateEqual(t *testing.T) {
	s := NewHostState(3)
	if err := s.Write(PageSize-2, []byte{1, 2, 3, 4}); err != nil { // straddles pages 0 and 1
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if !s.Equal(snap) {
		t.Fatal("a state differs from its own snapshot")
	}
	for _, off := range []int{0, PageSize - 1, PageSize, 3*PageSize - 1} {
		snap[off] ^= 0x80
		if s.Equal(snap) {
			t.Fatalf("image with byte %d flipped compares equal", off)
		}
		snap[off] ^= 0x80
	}
	if s.Equal(snap[:len(snap)-1]) || s.Equal(append(snap, 0)) || s.Equal(nil) {
		t.Fatal("an image of the wrong length compares equal")
	}
	if err := s.Write(2*PageSize, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if s.Equal(snap) {
		t.Fatal("a stale snapshot compares equal after a write")
	}
}

// The checkpointer runs Equal on every checkpoint it takes: it walks the
// pages in place and must not copy the state to compare it.
func TestHostStateEqualZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	s := NewHostState(8)
	if err := s.Write(700, []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() {
		if !s.Equal(snap) {
			t.Fatal("a state differs from its own snapshot")
		}
	}); allocs != 0 {
		t.Fatalf("Equal allocated %v times per call, want 0", allocs)
	}
}

func TestStationReconstruction(t *testing.T) {
	g := NewGroup(2)
	host := NewHostState(8)
	host.Write(0, []byte("generation 0"))

	// Full checkpoint lands on station 0.
	im, err := g.Station(0).Apply(3, host.Checkpoint(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im.Data, host.Snapshot()) {
		t.Fatal("reconstruction differs from host state")
	}

	// Incremental checkpoint on the same station.
	host.Write(5*PageSize, []byte("generation 1"))
	im, err = g.Station(0).Apply(3, host.Checkpoint(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im.Data, host.Snapshot()) {
		t.Fatal("incremental reconstruction differs")
	}
	if g.Station(0).WiredBytes() != 0 {
		t.Fatal("no wired fetch expected on the same station")
	}
}

func TestCrossStationFetch(t *testing.T) {
	g := NewGroup(3)
	host := NewHostState(8)
	host.Write(0, []byte("base"))
	if _, err := g.Station(0).Apply(7, host.Checkpoint(0, true)); err != nil {
		t.Fatal(err)
	}
	// The host switched to station 2: the incremental delta forces a
	// wired fetch of the base from station 0.
	host.Write(PageSize, []byte("increment"))
	im, err := g.Station(2).Apply(7, host.Checkpoint(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im.Data, host.Snapshot()) {
		t.Fatal("cross-station reconstruction differs")
	}
	if g.Station(2).WiredBytes() != int64(8*PageSize) {
		t.Fatalf("wired bytes = %d, want one full image", g.Station(2).WiredBytes())
	}
	if g.Station(2).Latest(7).Seq != 1 {
		t.Fatal("latest not updated")
	}
}

func TestIncrementalWithoutAnyBaseFails(t *testing.T) {
	g := NewGroup(2)
	host := NewHostState(2)
	host.Write(0, []byte{1})
	if _, err := g.Station(0).Apply(0, host.Checkpoint(1, false)); err == nil {
		t.Fatal("incremental delta with no base anywhere must fail")
	}
}

func TestSequenceGapDetected(t *testing.T) {
	g := NewGroup(1)
	host := NewHostState(2)
	g.Station(0).Apply(0, host.Checkpoint(0, true))
	host.Write(0, []byte{1})
	_ = host.Checkpoint(1, false) // delta lost in transit
	host.Write(1, []byte{2})
	if _, err := g.Station(0).Apply(0, host.Checkpoint(2, false)); err == nil {
		t.Fatal("applying seq 2 over base seq 0 must fail")
	}
}

func TestCorruptionDetected(t *testing.T) {
	g := NewGroup(1)
	host := NewHostState(2)
	d := host.Checkpoint(0, true)
	d.Pages[0].Data[0] ^= 0xFF // bit flip in transit
	if _, err := g.Station(0).Apply(0, d); err == nil {
		t.Fatal("checksum must catch the corruption")
	}
}

func TestMalformedPageUpdate(t *testing.T) {
	g := NewGroup(1)
	host := NewHostState(2)
	d := host.Checkpoint(0, true)
	d.Pages[0].Index = 99
	if _, err := g.Station(0).Apply(0, d); err == nil {
		t.Fatal("out-of-range page index must fail")
	}
}

// Property: an arbitrary sequence of writes and checkpoints, alternating
// stations, always reconstructs exactly the host's state.
func TestPropertyReconstructionMatchesHost(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		src := rng.New(seed)
		g := NewGroup(3)
		host := NewHostState(6)
		seq := 0
		g.Station(0).Apply(0, host.Checkpoint(seq, true))
		seq++
		station := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // write somewhere
				off := int(op) % (6*PageSize - 8)
				buf := make([]byte, 8)
				for i := range buf {
					buf[i] = byte(src.Uint64())
				}
				if err := host.Write(off, buf); err != nil {
					return false
				}
			case 2: // switch station
				station = (station + 1) % 3
			case 3: // checkpoint
				im, err := g.Station(station).Apply(0, host.Checkpoint(seq, false))
				if err != nil {
					return false
				}
				seq++
				if !bytes.Equal(im.Data, host.Snapshot()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCheckpointIncremental(b *testing.B) {
	host := NewHostState(64)
	host.Checkpoint(0, true)
	src := rng.New(1)
	seq := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.Write(src.Intn(64*PageSize-16), make([]byte, 16))
		d := host.Checkpoint(seq, false)
		seq++
		_ = d.Bytes()
	}
}

func BenchmarkApplyDelta(b *testing.B) {
	g := NewGroup(1)
	host := NewHostState(64)
	g.Station(0).Apply(0, host.Checkpoint(0, true))
	src := rng.New(1)
	seq := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.Write(src.Intn(64*PageSize-16), make([]byte, 16))
		if _, err := g.Station(0).Apply(0, host.Checkpoint(seq, false)); err != nil {
			b.Fatal(err)
		}
		seq++
	}
}

func TestHistoryAndFindImage(t *testing.T) {
	g := NewGroup(2)
	host := NewHostState(4)
	g.Station(0).Apply(1, host.Checkpoint(0, true))
	host.Write(0, []byte("v1"))
	g.Station(1).Apply(1, host.Checkpoint(1, false))
	// Both generations retrievable, on the stations that built them.
	im0, st0, err := g.FindImage(1, 0)
	if err != nil || st0 != g.Station(0) || im0.Seq != 0 {
		t.Fatalf("gen 0: %v %v %v", im0, st0, err)
	}
	im1, st1, err := g.FindImage(1, 1)
	if err != nil || st1 != g.Station(1) {
		t.Fatalf("gen 1: %v %v %v", im1, st1, err)
	}
	if bytes.Equal(im0.Data, im1.Data) {
		t.Fatal("generations must differ")
	}
	if _, _, err := g.FindImage(1, 9); err == nil {
		t.Fatal("missing image must fail")
	}
	if _, _, err := g.FindImage(7, 0); err == nil {
		t.Fatal("unknown host must fail")
	}
}

func TestDiscard(t *testing.T) {
	g := NewGroup(2)
	host := NewHostState(2)
	g.Station(0).Apply(0, host.Checkpoint(0, true))
	host.Write(0, []byte{1})
	g.Station(1).Apply(0, host.Checkpoint(1, false))
	host.Write(0, []byte{2})
	g.Station(0).Apply(0, host.Checkpoint(2, false))
	g.Discard(0, 2)
	for seq := range 2 {
		if _, _, err := g.FindImage(0, seq); !errors.Is(err, ErrDiscarded) {
			t.Fatalf("seq %d after discarding below 2: %v", seq, err)
		}
	}
	if _, _, err := g.FindImage(0, 2); err != nil {
		t.Fatal("current image discarded")
	}
	// Discarded from the history, the latest image is still the base of
	// the next incremental delta.
	g.Discard(0, 99)
	if _, _, err := g.FindImage(0, 2); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("seq 2 after discarding below 99: %v", err)
	}
	host.Write(0, []byte{3})
	if _, err := g.Station(0).Apply(0, host.Checkpoint(3, false)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.FindImage(0, 120); err == nil || errors.Is(err, ErrDiscarded) {
		t.Fatalf("a checkpoint never taken reads as %v", err)
	}
}
