package statestore

import (
	"bytes"
	"errors"
	"sync"
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

// Each Apply reports the bytes it fetched itself, so two hosts whose
// fetches interleave at one station are each charged their own base —
// a diff of the station-wide total around one Apply would charge one
// host for the other's fetch too.
func TestApplyReportsItsOwnFetch(t *testing.T) {
	g := NewGroup(2)
	a, b := NewHostState(2), NewHostState(4)
	for h, s := range []*HostState{a, b} {
		if _, err := g.Station(0).Apply(h, s.Checkpoint(0, true)); err != nil {
			t.Fatal(err)
		}
	}
	before := g.Station(1).WiredBytes()
	a.Write(0, []byte{1})
	b.Write(0, []byte{2})
	da, db := a.Checkpoint(1, false), b.Checkpoint(1, false)
	imB, err := g.Station(1).Apply(1, db) // lands between a's "before" and a's Apply
	if err != nil {
		t.Fatal(err)
	}
	imA, err := g.Station(1).Apply(0, da)
	if err != nil {
		t.Fatal(err)
	}
	if imA.Fetched != 2*PageSize || imB.Fetched != 4*PageSize {
		t.Fatalf("fetched %d and %d, want each host's own base: %d and %d", imA.Fetched, imB.Fetched, 2*PageSize, 4*PageSize)
	}
	if diff := g.Station(1).WiredBytes() - before; diff != imA.Fetched+imB.Fetched {
		t.Fatalf("station total moved by %d, the applies report %d", diff, imA.Fetched+imB.Fetched)
	}
	// A base already on the station is not fetched.
	a.Write(0, []byte{3})
	if im, err := g.Station(1).Apply(0, a.Checkpoint(2, false)); err != nil || im.Fetched != 0 {
		t.Fatalf("local base: fetched %v, err %v", im, err)
	}
}

// Two hosts on two goroutines share one group — one station they both
// keep returning to, so their fetches interleave there — applying,
// verifying, looking up and discarding their own images. Meaningful
// under -race: everything a call for host h touches is h's own.
func TestGroupHostsConcurrent(t *testing.T) {
	const stations, ckpts = 3, 400
	g := NewGroupOf(stations, 2)
	fetched := make([]int64, 2)
	want := make([]int64, 2)
	var wg sync.WaitGroup
	for h := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := NewHostState(2 + 2*h) // the hosts' images differ in size
			src := rng.New(uint64(h))
			at := 0
			for seq := range ckpts {
				buf := []byte{byte(src.Uint64()), byte(seq)}
				if err := state.Write(src.Intn(len(state.pages)*PageSize-len(buf)), buf); err != nil {
					t.Error(err)
					return
				}
				next := src.Intn(stations)
				if seq > 0 && next != at {
					want[h] += int64(len(state.pages) * PageSize)
				}
				at = next
				im, err := g.Station(at).Apply(h, state.Checkpoint(seq, seq == 0))
				if err != nil || !state.Equal(im.Data) {
					t.Errorf("host %d seq %d: reconstruction differs (err %v)", h, seq, err)
					return
				}
				fetched[h] += im.Fetched
				if seq%5 == 4 {
					g.Discard(h, seq-2)
				}
				if seq >= 2 {
					im, st, err := g.FindImage(h, seq-1)
					if err != nil || st == nil || im.Verify() != nil {
						t.Errorf("host %d seq %d: %v", h, seq-1, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for s := range stations {
		total += g.Station(s).WiredBytes()
	}
	if fetched[0] != want[0] || fetched[1] != want[1] || total != want[0]+want[1] {
		t.Fatalf("fetched %v, want %v; stations counted %d", fetched, want, total)
	}
}

// An image Discard dropped is rebuilt in place: once a host's chain is
// collected behind it, an Apply allocates nothing — no image, no buffer.
func TestStationImageReuseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	const runs = 100
	g := NewGroup(1)
	host := NewHostState(8)
	deltas := make([]*Delta, runs+3)
	for seq := range deltas {
		host.Write(seq%(8*PageSize-1), []byte{byte(seq), 1})
		deltas[seq] = host.Checkpoint(seq, seq == 0)
	}
	for _, d := range deltas[:2] {
		if _, err := g.Station(0).Apply(0, d); err != nil {
			t.Fatal(err)
		}
	}
	next := 2
	if allocs := testing.AllocsPerRun(runs, func() {
		d := deltas[next]
		next++
		if _, err := g.Station(0).Apply(0, d); err != nil {
			t.Fatal(err)
		}
		g.Discard(0, d.Seq) // frees the image before it
	}); allocs != 0 {
		t.Fatalf("Apply after Discard allocated %v times per call, want 0", allocs)
	}
	// AllocsPerRun calls once more than runs, to warm up.
	if im := g.Station(0).Latest(0); im.Seq != len(deltas)-1 || !host.Equal(im.Data) {
		t.Fatalf("latest image is seq %d, want %d holding the host's state", im.Seq, len(deltas)-1)
	}
}
