package replaycmp

import (
	"bytes"
	"strings"
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/vclock"
)

func TestCauseKey(t *testing.T) {
	cases := []struct {
		kind  storage.Kind
		cause string
		want  string
	}{
		{storage.Initial, "anything", "initial"},
		{storage.Forced, "deliver", "forced"},
		{storage.Basic, "switch", "basic-switch"},
		{storage.Basic, "disconnect", "basic-disconnect"},
		{storage.Basic, "", "basic-other"},
		{storage.Basic, "marker", "basic-marker"},
	}
	for _, tc := range cases {
		if got := CauseKey(tc.kind, tc.cause); got != tc.want {
			t.Errorf("CauseKey(%v, %q) = %q, want %q", tc.kind, tc.cause, got, tc.want)
		}
	}
}

func TestFingerprint(t *testing.T) {
	tp := protocol.TPPiggyback{Ckpt: vclock.New(2, 0), Loc: vclock.New(2, 0)}
	tp.Ckpt[1] = 3
	tp.Loc[0] = 1
	cases := []struct {
		pb   any
		want string
	}{
		{nil, "none"},
		{protocol.IndexPiggyback(7), "idx:7"},
		{tp, "tp:ckpt[0 3],loc[1 0]"},
		{"weird", "opaque:string"},
	}
	for _, tc := range cases {
		if got := Fingerprint(tc.pb); got != tc.want {
			t.Errorf("Fingerprint(%#v) = %q, want %q", tc.pb, got, tc.want)
		}
	}
	// The view a send returns and the dense vectors it stands for must
	// agree — the live side fingerprints wire-decoded values, the replay
	// side the protocol's views.
	p := protocol.NewTP(2, func(mobile.HostID, int, storage.Kind) *storage.Record { return nil },
		func(h mobile.HostID) mobile.MSSID { return mobile.MSSID(h) + 4 })
	p.Init()
	p.OnDeliver(1, 0, p.OnSend(0, 1))
	view := p.OnSend(1, 0).(*protocol.TPView)
	if got, want := Fingerprint(view), "tp:ckpt[0 0],loc[4 5]"; got != want || Fingerprint(view.Dense()) != want {
		t.Fatalf("view fingerprints as %q, its dense form as %q, want %q", got, Fingerprint(view.Dense()), want)
	}
}

func twin() (*Log, *Log) {
	mk := func() *Log {
		l := NewLog("QBC", 2)
		l.RecordCheckpoint(0, Checkpoint{Seq: 0, Ordinal: 0, Index: 0, Kind: "initial", Cause: "initial"})
		l.RecordCheckpoint(1, Checkpoint{Seq: 0, Ordinal: 0, Index: 0, Kind: "initial", Cause: "initial"})
		l.RecordCheckpoint(1, Checkpoint{Seq: 2, Ordinal: 1, Index: 1, Kind: "forced", Cause: "forced"})
		l.RecordDelivery(1, Delivery{Seq: 2, Msg: 1, From: 0, Piggyback: "idx:1", RecvCount: 2})
		l.RecoveryLines = [][]int{{0, -1}, {-1, 0}}
		return l
	}
	return mk(), mk()
}

func TestCompareIdentical(t *testing.T) {
	a, b := twin()
	if d := Compare(a, b, nil); d != nil {
		t.Fatalf("identical logs diverge: %v", d)
	}
}

func TestCompareFindsFirstDivergence(t *testing.T) {
	a, b := twin()
	// Two injected diffs; the one at the smaller schedule seq must win.
	b.Checkpoints[1][1].Kind = "basic"
	b.Deliveries[1][0].RecvCount = 1
	b.RecoveryLines[0][1] = 0
	d := Compare(a, b, nil)
	if d == nil {
		t.Fatal("no divergence found")
	}
	if d.Seq != 2 || d.Host != 1 {
		t.Fatalf("wrong divergence: %+v", d)
	}
	if !strings.Contains(d.String(), "first divergence") {
		t.Fatalf("report %q lacks the divergence framing", d.String())
	}
}

func TestCompareMissingTail(t *testing.T) {
	a, b := twin()
	b.Deliveries[1] = b.Deliveries[1][:0]
	d := Compare(a, b, nil)
	if d == nil || d.Field != "delivery" || d.Replay != "(missing)" {
		t.Fatalf("missing tail not reported: %+v", d)
	}
}

func TestCompareRecoveryLines(t *testing.T) {
	a, b := twin()
	b.RecoveryLines[1][0] = 0
	d := Compare(a, b, nil)
	if d == nil || d.Field != "recovery-line" || d.Host != 1 {
		t.Fatalf("recovery-line divergence not reported: %+v", d)
	}
}

func TestCompareHostCount(t *testing.T) {
	a, b := twin()
	b.AddHost()
	if d := Compare(a, b, nil); d == nil || d.Field != "hosts" {
		t.Fatalf("host-count divergence not reported: %+v", d)
	}
}

func TestPerturbFlips(t *testing.T) {
	a, b := twin()
	if !Perturb(b, 2) {
		t.Fatal("Perturb refused a valid ordinal")
	}
	if Compare(a, b, nil) == nil {
		t.Fatal("perturbed log still compares equal")
	}
	if Perturb(b, 99) {
		t.Fatal("Perturb accepted an out-of-range ordinal")
	}
}

// oneMessage is a two-host schedule: one send and its delivery.
func oneMessage() *trace.Schedule {
	h := trace.NewHistory(2, 2)
	h.Append(trace.Event{Kind: trace.Send, At: 1, Host: 0, Peer: 1, Msg: 1})
	h.Append(trace.Event{Kind: trace.Deliver, At: 2, Host: 1, Peer: 0, Msg: 1})
	return h.Schedule("QBC", 1)
}

func TestBundleRoundTrip(t *testing.T) {
	s := oneMessage()
	l, _ := twin()
	b := &Bundle{Schedule: s, Live: l}
	var buf bytes.Buffer
	if err := b.Export(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ImportBundle(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if d := Compare(b.Live, got.Live, got.Schedule); d != nil {
		t.Fatalf("round trip changed the live log: %v", d)
	}
	var again bytes.Buffer
	if err := got.Export(&again); err != nil {
		t.Fatal(err)
	}
	if first != again.String() {
		t.Fatal("bundle export is not byte-identical after a round trip")
	}
	// Host-count mismatch between the sections must be rejected.
	bad := &Bundle{Schedule: s, Live: NewLog("QBC", 5)}
	buf.Reset()
	if err := bad.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportBundle(&buf); err == nil {
		t.Fatal("bundle with mismatched host counts accepted")
	}
}

// shapeMutations are the ways a live log stops matching the schedule it
// travels with while staying well-formed JSON: each once passed (or
// panicked) the differential gate.
var shapeMutations = []struct {
	name   string
	mutate func(*Log)
	// field is what Compare reports, importErr what ImportBundle names.
	field, importErr string
}{
	{"deliveries emptied", func(l *Log) { l.Deliveries = [][]Delivery{} }, "hosts", "live.deliveries"},
	{"last row dropped", func(l *Log) { l.Deliveries = l.Deliveries[:len(l.Deliveries)-1] }, "hosts", "live.deliveries"},
	{"row appended", func(l *Log) { l.Deliveries = append(l.Deliveries, nil) }, "hosts", "live.deliveries"},
	{"protocol renamed", func(l *Log) { l.Protocol = "TP" }, "protocol", "live.protocol"},
}

// Compare is total on any two logs: a shape mismatch on either side is a
// divergence, never a panic and never a match.
func TestCompareShapeMismatch(t *testing.T) {
	for _, m := range shapeMutations {
		a, b := twin()
		m.mutate(a)
		for _, side := range []struct {
			name         string
			live, replay *Log
		}{{"live", a, b}, {"replay", b, a}} {
			d := Compare(side.live, side.replay, nil)
			if d == nil || d.Field != m.field {
				t.Errorf("%s on the %s side: divergence %+v, want field %q", m.name, side.name, d, m.field)
			}
		}
	}
}

// A bundle whose live log does not have the schedule's shape is refused
// at import, with an error naming the offending field.
func TestImportBundleRejectsMisshapenLiveLog(t *testing.T) {
	s := oneMessage()
	for _, m := range shapeMutations {
		l, _ := twin()
		m.mutate(l)
		var buf bytes.Buffer
		if err := (&Bundle{Schedule: s, Live: l}).Export(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ImportBundle(&buf); err == nil || !strings.Contains(err.Error(), m.importErr) {
			t.Errorf("%s: import error %v, want one naming %s", m.name, err, m.importErr)
		}
	}
}
