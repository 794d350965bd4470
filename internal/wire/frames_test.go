package wire

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
)

func TestFrameRoundTripApp(t *testing.T) {
	p := &Packet{ID: 7, From: 1, To: 2, Piggyback: protocol.IndexPiggyback(41)}
	b, err := EncodeFrame(p)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	if b[0] != FrameApp {
		t.Fatalf("kind = %d", b[0])
	}
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestFrameRoundTripLogTransfer(t *testing.T) {
	f := &LogTransfer{
		Host:    3,
		FromMSS: 1,
		ToMSS:   2,
		Records: []LogRecord{
			{Seq: 0, MsgID: 10, From: 1, RecvCount: 2, At: 1.5},
			{Seq: 1, MsgID: 11, From: 2, RecvCount: 3, At: 2.25},
		},
	}
	b, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	if want := 1 + 4 + 4 + 4 + 4 + 2*logRecordSize; len(b) != want {
		t.Fatalf("frame is %d bytes, want %d", len(b), want)
	}
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v, want %+v", got, f)
	}
	// Empty transfer (host that never received) round-trips too.
	empty := &LogTransfer{Host: 0, FromMSS: 0, ToMSS: 1}
	b, err = EncodeFrame(empty)
	if err != nil {
		t.Fatalf("EncodeFrame(empty): %v", err)
	}
	got, err = DecodeFrame(b)
	if err != nil {
		t.Fatalf("DecodeFrame(empty): %v", err)
	}
	if g := got.(*LogTransfer); g.Host != 0 || len(g.Records) != 0 {
		t.Fatalf("got %+v", g)
	}
}

func TestEncodeFrameRejects(t *testing.T) {
	cases := []any{
		42,
		&LogTransfer{Host: -1},
		&LogTransfer{Host: 0, FromMSS: math.MaxUint32 + 1},
		&LogTransfer{Host: 0, Records: []LogRecord{{From: -2}}},
		&LogTransfer{Host: 0, Records: make([]LogRecord, MaxTransferRecords+1)},
	}
	for _, v := range cases {
		if _, err := EncodeFrame(v); err == nil {
			t.Errorf("EncodeFrame(%+v) accepted", v)
		}
	}
}

// TestFrameHostIDsBeyondU16 pins the widened id space: the original
// format's u16 ids rejected (or would have truncated) any deployment
// past 65,536 hosts, which E21 crosses by design.
func TestFrameHostIDsBeyondU16(t *testing.T) {
	f := &LogTransfer{
		Host:    math.MaxUint16 + 7,
		FromMSS: math.MaxUint16 + 1,
		ToMSS:   1,
		Records: []LogRecord{{Seq: 1, MsgID: 2, From: 1 << 20, RecvCount: 3, At: 0.5}},
	}
	b, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v, want %+v", got, f)
	}
	p := &Packet{ID: 3, From: 70_000, To: 999_999, Piggyback: nil}
	pb, err := EncodeFrame(p)
	if err != nil {
		t.Fatalf("EncodeFrame(packet): %v", err)
	}
	gp, err := DecodeFrame(pb)
	if err != nil {
		t.Fatalf("DecodeFrame(packet): %v", err)
	}
	if !reflect.DeepEqual(gp, p) {
		t.Fatalf("got %+v, want %+v", gp, p)
	}
}

func TestSplitTransfer(t *testing.T) {
	small := &LogTransfer{Host: 1, FromMSS: 0, ToMSS: 1, Records: testRecords(3)}
	if got := SplitTransfer(small); len(got) != 1 || got[0] != small {
		t.Fatalf("small transfer split into %d frames", len(got))
	}
	empty := &LogTransfer{Host: 2, FromMSS: 1, ToMSS: 0}
	if got := SplitTransfer(empty); len(got) != 1 || got[0] != empty {
		t.Fatalf("empty transfer split into %d frames", len(got))
	}
	big := &LogTransfer{Host: 3, FromMSS: 0, ToMSS: 1, Records: testRecords(2*MaxTransferRecords + 5)}
	chunks := SplitTransfer(big)
	if len(chunks) != 3 {
		t.Fatalf("split into %d chunks, want 3", len(chunks))
	}
	var seq uint64
	for i, c := range chunks {
		if c.Host != big.Host || c.FromMSS != big.FromMSS || c.ToMSS != big.ToMSS {
			t.Fatalf("chunk %d lost identity: %+v", i, c)
		}
		if i < len(chunks)-1 && len(c.Records) != MaxTransferRecords {
			t.Fatalf("chunk %d has %d records", i, len(c.Records))
		}
		for _, r := range c.Records {
			if r.Seq != seq {
				t.Fatalf("chunk %d: seq %d, want %d", i, r.Seq, seq)
			}
			seq++
		}
		if _, err := EncodeFrame(c); err != nil {
			t.Fatalf("chunk %d rejected: %v", i, err)
		}
	}
	if seq != uint64(len(big.Records)) {
		t.Fatalf("chunks cover %d records, want %d", seq, len(big.Records))
	}
}

// testRecords builds n distinguishable records.
func testRecords(n int) []LogRecord {
	rs := make([]LogRecord, n)
	for i := range rs {
		rs[i] = LogRecord{Seq: uint64(i), MsgID: uint64(1000 + i), From: mobile.HostID(i % 7), RecvCount: int64(i / 3), At: float64(i) / 4}
	}
	return rs
}

// sameTransfer compares field by field; nil and empty Records are equal
// (a reused decode target keeps its non-nil backing array).
func sameTransfer(a, b *LogTransfer) bool {
	return a.Host == b.Host && a.FromMSS == b.FromMSS && a.ToMSS == b.ToMSS && slices.Equal(a.Records, b.Records)
}

// The append/into pair is the one log-transfer codec: its bytes are
// EncodeFrame's, and decoding into a previously used target gives
// DecodeFrame's result with nothing of the previous frame left over.
func TestLogTransferAppendIntoMatchesFrame(t *testing.T) {
	prefix := []byte("already-in-the-buffer")
	dirty := func() *LogTransfer {
		d := &LogTransfer{Host: 99, FromMSS: 98, ToMSS: 97, Records: testRecords(MaxTransferRecords)}
		for i := range d.Records {
			d.Records[i].MsgID = 0xdead
		}
		return d
	}
	for _, n := range []int{0, 1, MaxTransferRecords} {
		f := &LogTransfer{Host: 3, FromMSS: 1, ToMSS: 2, Records: testRecords(n)}
		want, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("n=%d: EncodeFrame: %v", n, err)
		}
		got, err := AppendLogTransfer(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendLogTransfer(nil) differs from EncodeFrame (err %v)", n, err)
		}
		got, err = AppendLogTransfer(append([]byte(nil), prefix...), f)
		if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("n=%d: AppendLogTransfer onto a prefix lost the prefix or the frame (err %v)", n, err)
		}

		ref, err := DecodeFrame(want)
		if err != nil {
			t.Fatalf("n=%d: DecodeFrame: %v", n, err)
		}
		for name, dst := range map[string]*LogTransfer{"fresh": {}, "dirty": dirty(), "short": {Records: testRecords(1)}} {
			if err := DecodeLogTransfer(dst, want); err != nil {
				t.Fatalf("n=%d %s: DecodeLogTransfer: %v", n, name, err)
			}
			if !sameTransfer(dst, ref.(*LogTransfer)) || !sameTransfer(dst, f) {
				t.Fatalf("n=%d %s: decoded transfer differs from DecodeFrame's", n, name)
			}
		}
	}

	big := &LogTransfer{Host: 3, FromMSS: 1, ToMSS: 2, Records: testRecords(MaxTransferRecords + 1)}
	if _, err := EncodeFrame(big); err == nil {
		t.Fatal("EncodeFrame accepted MaxTransferRecords+1 records")
	}
	got, err := AppendLogTransfer(prefix, big)
	if err == nil {
		t.Fatal("AppendLogTransfer accepted MaxTransferRecords+1 records")
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("AppendLogTransfer changed dst on error: %q", got)
	}
	// A record the encoder rejects midway leaves dst as it was, too.
	bad := &LogTransfer{Host: 3, Records: []LogRecord{{From: 1}, {From: -2}}}
	if got, err := AppendLogTransfer(prefix, bad); err == nil || !bytes.Equal(got, prefix) {
		t.Fatalf("AppendLogTransfer(bad sender) = %q, %v", got, err)
	}
}

// With a warm frame buffer and decode target the pair allocates nothing,
// which is what lets a hand-off reuse both.
func TestLogTransferZeroAlloc(t *testing.T) {
	f := &LogTransfer{Host: 3, FromMSS: 1, ToMSS: 2, Records: testRecords(1500)}
	var frame []byte
	var into LogTransfer
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if frame, err = AppendLogTransfer(frame[:0], f); err != nil {
			t.Fatal(err)
		}
		if err = DecodeLogTransfer(&into, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm append+decode allocated %v times, want 0", allocs)
	}
	if !sameTransfer(&into, f) {
		t.Fatal("round trip changed the transfer")
	}
}

// A rejected frame leaves the decode target untouched, so a reused
// target never holds half of a bad frame.
func TestDecodeLogTransferRejects(t *testing.T) {
	ok, err := EncodeFrame(&LogTransfer{Host: 1, FromMSS: 0, ToMSS: 1, Records: testRecords(2)})
	if err != nil {
		t.Fatal(err)
	}
	app, err := EncodeFrame(&Packet{ID: 1, From: 0, To: 1, Piggyback: protocol.IndexPiggyback(2)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"nil":       nil,
		"kind only": {FrameLogTransfer},
		"truncated": ok[:len(ok)-1],
		"trailing":  append(append([]byte(nil), ok...), 0),
		"app frame": app,
		"app kind":  append([]byte{FrameApp}, ok[1:]...),
		"absurd n":  {FrameLogTransfer, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
	}
	for name, b := range cases {
		dst := &LogTransfer{Host: 42, FromMSS: 4, ToMSS: 2, Records: testRecords(3)}
		if err := DecodeLogTransfer(dst, b); err == nil {
			t.Errorf("%s: DecodeLogTransfer(% x) accepted", name, b)
		}
		if !sameTransfer(dst, &LogTransfer{Host: 42, FromMSS: 4, ToMSS: 2, Records: testRecords(3)}) {
			t.Errorf("%s: rejected frame modified dst: %+v", name, dst)
		}
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{9},                // unknown kind
		{FrameLogTransfer}, // truncated header
		{FrameApp},         // truncated packet
		{FrameLogTransfer, 0, 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff}, // absurd count
		// A well-formed frame of the log-ack kind 2, which the format no
		// longer has.
		{2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2},
	}
	for _, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("DecodeFrame(% x) accepted", b)
		}
	}
}

// FuzzFrameRoundTrip feeds arbitrary bytes to DecodeFrame: it must never
// panic, and any frame it does accept must re-encode byte-identically
// (the formats are canonical and length-exact). The same bytes go to the
// into-form decoder with a used target: it must agree with DecodeFrame
// on what is a log transfer, re-encode to the same bytes, and never
// panic either.
func FuzzFrameRoundTrip(f *testing.F) {
	seed := []any{
		&Packet{ID: 1, From: 0, To: 1, Piggyback: nil},
		&Packet{ID: 2, From: 1, To: 0, Piggyback: protocol.IndexPiggyback(9)},
		&LogTransfer{Host: 1, FromMSS: 0, ToMSS: 1, Records: []LogRecord{{Seq: 0, MsgID: 5, From: 0, RecvCount: 1, At: 3.5}}},
		// Ids past the old u16 ceiling: these frames were unencodable
		// before the u32 widening.
		&Packet{ID: 3, From: 70_000, To: 1_000_000, Piggyback: nil},
		&LogTransfer{Host: 70_000, FromMSS: 65_536, ToMSS: 1, Records: []LogRecord{{Seq: 2, MsgID: 6, From: 99_999, RecvCount: 1, At: 1.5}}},
	}
	for _, v := range seed {
		b, err := EncodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{FrameLogTransfer, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeFrame(b)
		into := &LogTransfer{Host: 7, Records: make([]LogRecord, 2, 4)}
		intoErr := DecodeLogTransfer(into, b)
		if _, isTransfer := v.(*LogTransfer); isTransfer != (intoErr == nil) {
			t.Fatalf("DecodeFrame gave %T (err %v), DecodeLogTransfer err %v", v, err, intoErr)
		} else if isTransfer {
			// Compared as bytes: a fuzzed At may be NaN, which equals nothing.
			if out, err := AppendLogTransfer(nil, into); err != nil || !bytes.Equal(out, b) {
				t.Fatalf("into-form round trip changed bytes (err %v):\n in  % x\n out % x", err, b, out)
			}
		}
		if err != nil {
			return
		}
		out, err := EncodeFrame(v)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("round trip changed bytes:\n in  % x\n out % x", b, out)
		}
	})
}
