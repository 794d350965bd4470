package protoside

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/obs"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/trace"
)

// TestRenderOrder pins the order in which RenderTimeline draws each
// track, over a hand-built side: two slots, A without a message log and B
// with a pessimistic one (a flush row per delivery, hand-off and
// disconnection), three hosts on two stations, host 2 joining. The order
// is the one the drawing hooks of the event path produced:
//
//   - Start: each slot's initial checkpoints;
//   - send: each slot's checkpoints, then send and the flow's begin;
//   - deliver: deliver and a flow step; then per slot its checkpoints (a
//     forced one adds a flow step) and its flush; then the flow's end;
//   - hand-off and disconnect: per slot its checkpoints and its flush;
//     then the instant;
//   - reconnect: the checkpoints, then the span, then the instant;
//   - join: the track's name, then join, then the checkpoints;
//   - marker and tick: that slot's checkpoints;
//   - round: the checkpoints, on the initiator's track.
func TestRenderOrder(t *testing.T) {
	hist := trace.NewHistory(2, 2)
	for i, ev := range []trace.Event{
		{Kind: trace.Send, Host: 0, Peer: 1, Msg: 7},
		{Kind: trace.Deliver, Host: 1, Peer: 0, Msg: 7, Arg: 0},
		{Kind: trace.Handoff, Host: 0, Arg: 1},
		{Kind: trace.Disconnect, Host: 1},
		{Kind: trace.Reconnect, Host: 1, Arg: 0},
		{Kind: trace.Join, Host: 2, Arg: 1},
		{Kind: trace.Round, Host: -1, Arg: 0},
		{Kind: trace.Marker, Host: 0, Arg: 0},
		{Kind: trace.Tick, Host: 1, Arg: 1},
		{Kind: trace.Send, Host: 0, Peer: 2, Msg: 8},
	} {
		ev.At = des.Time(i + 1)
		hist.Append(ev)
	}
	a, b := replaycmp.NewLog("A", 2), replaycmp.NewLog("B", 2)
	a.AddHost()
	b.AddHost()
	ck := func(l *replaycmp.Log, h int, seq uint64, kind, cause string) {
		l.RecordCheckpoint(h, replaycmp.Checkpoint{Seq: seq, Ordinal: len(l.Checkpoints[h]), Index: len(l.Checkpoints[h]), Kind: kind, Cause: cause})
	}
	for h := range 2 {
		ck(a, h, 0, "initial", "initial")
		ck(b, h, 0, "initial", "initial")
	}
	ck(a, 0, 0, "basic", "basic-send") // row 0's, stamped 0 like Start's
	ck(a, 1, 1, "forced", "forced")
	ck(b, 1, 1, "forced", "forced")
	ck(a, 0, 2, "basic", "basic-switch")
	ck(b, 1, 3, "basic", "basic-disconnect")
	ck(a, 1, 4, "basic", "basic-reconnect")
	ck(a, 2, 5, "initial", "initial")
	ck(b, 2, 5, "initial", "initial")
	ck(a, 2, 6, "basic", "basic-round")
	ck(a, 0, 7, "basic", "basic-marker")
	ck(b, 1, 8, "basic", "basic-tick")
	p := &Side{Hist: hist, Slots: []Slot{
		{Name: "A", Dec: a},
		{Name: "B", Dec: b, flushes: []flushRow{{1, 1, 1}, {2, 0, 1}, {3, 1, 2}}},
	}}
	tl := obs.NewTimeline()
	p.RenderTimeline(tl)

	got := map[int][]string{}
	for _, ev := range tl.Events() {
		s := ev.Name + " " + ev.Phase
		switch ev.Name {
		case "checkpoint":
			s += " " + ev.Args["proto"] + " " + ev.Args["kind"]
		case "log-flush":
			s += " " + ev.Args["proto"] + " " + ev.Args["entries"]
		case "msg-flow":
			s += " " + ev.ID
		case "send", "deliver":
			s += " " + ev.Args["msg"]
		case "handoff":
			s += " " + ev.Args["from"] + "->" + ev.Args["to"]
		case "disconnect":
			s += " " + ev.Args["from"]
		case "reconnect", "join":
			s += " " + ev.Args["at"]
		case "disconnected":
			s += fmt.Sprintf(" %v+%v", ev.Ts, ev.Dur)
		}
		got[ev.Tid] = append(got[ev.Tid], fmt.Sprintf("%v %s", ev.Ts, s))
	}
	flow2 := fmt.Sprint(uint64(0)<<32 | 1) // host 0's second send
	want := map[int][]string{
		0: {
			"0 checkpoint i A initial", "0 checkpoint i B initial",
			"1 checkpoint i A basic", "1 send i 0", "1 msg-flow s 0",
			"3 checkpoint i A basic", "3 log-flush i B 1", "3 handoff i 0->1",
			"8 checkpoint i A basic",
			"10 send i " + flow2, "10 msg-flow s " + flow2,
		},
		1: {
			"0 checkpoint i A initial", "0 checkpoint i B initial",
			"2 deliver i 0", "2 msg-flow t 0",
			"2 checkpoint i A forced", "2 msg-flow t 0",
			"2 checkpoint i B forced", "2 msg-flow t 0", "2 log-flush i B 1",
			"2 msg-flow f 0",
			"4 checkpoint i B basic", "4 log-flush i B 2", "4 disconnect i 1",
			"5 checkpoint i A basic", "4 disconnected X 4+1", "5 reconnect i 0",
			"9 checkpoint i B basic",
		},
		2: {
			"6 join i 1", "6 checkpoint i A initial", "6 checkpoint i B initial",
			"7 checkpoint i A basic",
		},
	}
	for h := range 3 {
		if !slices.Equal(got[h], want[h]) {
			t.Errorf("track %d:\n got %q\nwant %q", h, got[h], want[h])
		}
	}
	var out bytes.Buffer
	if err := tl.Export(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"MH 0"`, `"MH 1"`, `"MH 2 (joined)"`} {
		if !bytes.Contains(out.Bytes(), []byte(name)) {
			t.Errorf("no track named %s", name)
		}
	}
}
