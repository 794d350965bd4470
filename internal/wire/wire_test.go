package wire

import (
	"reflect"
	"testing"
	"testing/quick"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/race"
	"mobickpt/internal/vclock"
)

func roundTrip(t *testing.T, pb any) any {
	t.Helper()
	p := &Packet{ID: 42, From: 3, To: 7, Piggyback: pb}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.From != 3 || got.To != 7 {
		t.Fatalf("header mangled: %+v", got)
	}
	return got.Piggyback
}

func TestRoundTripNone(t *testing.T) {
	if pb := roundTrip(t, nil); pb != nil {
		t.Fatalf("got %v", pb)
	}
}

func TestRoundTripIndex(t *testing.T) {
	pb := roundTrip(t, protocol.IndexPiggyback(-5))
	if pb.(protocol.IndexPiggyback) != -5 {
		t.Fatalf("got %v", pb)
	}
}

// An index packet, the frame of every BCS and QBC send, is one
// allocation: the buffer is sized for the header, the tag and the index
// word (16 + 1 + 8 = 25 B), so the append never grows it.
func TestMarshalAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	p := &Packet{ID: 42, From: 3, To: 7, Piggyback: protocol.IndexPiggyback(9)}
	var frame []byte
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if frame, err = p.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Marshal of an index packet allocated %v times, want 1", allocs)
	}
	if len(frame) != cap(frame) {
		t.Fatalf("index frame of %d B in a %d B buffer", len(frame), cap(frame))
	}
}

func TestRoundTripVector(t *testing.T) {
	in := protocol.TPPiggyback{
		Ckpt: vclock.Vector{0, -1, 7},
		Loc:  vclock.Vector{2, -1, 4},
	}
	pb := roundTrip(t, in)
	out := pb.(protocol.TPPiggyback)
	if !out.Ckpt.Equal(in.Ckpt) || !out.Loc.Equal(in.Loc) {
		t.Fatalf("got %+v", out)
	}
}

func TestVectorWidthMismatchFails(t *testing.T) {
	bad := protocol.TPPiggyback{Ckpt: vclock.Vector{1}, Loc: vclock.Vector{1, 2}}
	if _, err := AppendPiggyback(nil, bad); err == nil {
		t.Fatal("width mismatch must fail")
	}
}

func TestUnsupportedPiggybackFails(t *testing.T) {
	if _, err := AppendPiggyback(nil, 3.14); err == nil {
		t.Fatal("unsupported type must fail")
	}
}

func TestTruncationDetected(t *testing.T) {
	p := &Packet{ID: 1, From: 0, To: 1, Piggyback: protocol.TPPiggyback{
		Ckpt: vclock.New(4, 0), Loc: vclock.New(4, 0)}}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	p := &Packet{ID: 1, From: 0, To: 1, Piggyback: protocol.IndexPiggyback(3)}
	b, _ := p.Marshal()
	if _, err := Unmarshal(append(b, 0)); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestUnknownTagFails(t *testing.T) {
	b := make([]byte, packetHeader+1)
	b[packetHeader] = 99
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("unknown tag must fail")
	}
}

func TestHostIDRange(t *testing.T) {
	p := &Packet{ID: 1, From: -1, To: 0}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("negative host id must fail")
	}
	// 1<<17 crossed the old u16 ceiling; it is valid since the u32
	// widening. The new ceiling is u32.
	p = &Packet{ID: 1, From: 0, To: 1 << 17}
	if _, err := p.Marshal(); err != nil {
		t.Fatalf("host id 1<<17 must encode after u32 widening: %v", err)
	}
	p = &Packet{ID: 1, From: 0, To: 1 << 33}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("oversized host id must fail")
	}
}

// Property: any packet round-trips exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(id uint64, from, to uint16, kind uint8, sn int64, ckptRaw, locRaw []int16) bool {
		var pb any
		switch kind % 3 {
		case 0:
			pb = nil
		case 1:
			pb = protocol.IndexPiggyback(sn)
		case 2:
			n := len(ckptRaw)
			if len(locRaw) < n {
				n = len(locRaw)
			}
			ck, lo := vclock.New(n, 0), vclock.New(n, 0)
			for i := 0; i < n; i++ {
				ck[i], lo[i] = int(ckptRaw[i]), int(locRaw[i])
			}
			pb = protocol.TPPiggyback{Ckpt: ck, Loc: lo}
		}
		p := &Packet{ID: id, From: mobile.HostID(from), To: mobile.HostID(to), Piggyback: pb}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return got.ID == id && got.From == mobile.HostID(from) && got.To == mobile.HostID(to) &&
			reflect.DeepEqual(got.Piggyback, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalIndex(b *testing.B) {
	p := &Packet{ID: 1, From: 0, To: 1, Piggyback: protocol.IndexPiggyback(7)}
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalVector10(b *testing.B) {
	p := &Packet{ID: 1, From: 0, To: 1, Piggyback: protocol.TPPiggyback{
		Ckpt: vclock.New(10, 3), Loc: vclock.New(10, 2)}}
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}
