package trace

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
	"mobickpt/internal/rng"
)

// flatHistory is the reference the chunked history is held to: the same
// recording rules over plain slices grown by append, one count pair per
// view beside them.
type flatHistory struct {
	hosts, stations, n int

	rows      []Event
	sendRow   []int32
	delivered []bool
	delivRow  []int32
	delivMsg  []int32

	send, recv [][]int32 // per view
}

func (f *flatHistory) append(ev Event) int32 {
	ord := int32(-1)
	switch ev.Kind {
	case Send:
		ord = int32(len(f.sendRow))
		f.sendRow = append(f.sendRow, int32(len(f.rows)))
		f.delivered = append(f.delivered, false)
	case Deliver:
		o := int(ev.Arg)
		if o < 0 || o >= len(f.sendRow) || f.delivered[o] ||
			f.rows[f.sendRow[o]].Msg != ev.Msg || f.rows[f.sendRow[o]].Host != ev.Peer || f.rows[f.sendRow[o]].Peer != ev.Host {
			panic(fmt.Sprintf("trace: delivery of message %d from host %d to host %d as ordinal %d, which is unsent, another message or delivered",
				ev.Msg, ev.Peer, ev.Host, o))
		}
		f.delivered[o] = true
		f.delivRow = append(f.delivRow, int32(len(f.rows)))
		f.delivMsg = append(f.delivMsg, ev.Arg)
	case Join:
		if int(ev.Host) != f.n {
			panic(fmt.Sprintf("trace: host %d joins, the next id is %d", ev.Host, f.n))
		}
		f.n++
	}
	f.rows = append(f.rows, ev)
	return ord
}

// row is row i as History.Row reads it: a message's flow is its id.
func (f *flatHistory) row(i int) Event {
	ev := f.rows[i]
	if ev.Kind == Send || ev.Kind == Deliver {
		ev.Flow = ev.Msg
	}
	return ev
}

// event is delivered message i as view v sees it.
func (f *flatHistory) event(v, i int) MessageEvent {
	r, k := f.rows[f.delivRow[i]], f.delivMsg[i]
	s := f.rows[f.sendRow[k]]
	return MessageEvent{
		ID: r.Msg, From: mobile.HostID(r.Peer), To: mobile.HostID(r.Host),
		SendCount: int(f.send[v][k]), RecvCount: int(f.recv[v][i]),
		SentAt: s.At, DeliveredAt: r.At,
	}
}

func (f *flatHistory) schedule(protocol string, seed uint64) *Schedule {
	s := &Schedule{Hosts: f.hosts, Stations: f.stations, Protocol: protocol, Seed: seed}
	for ord, done := range f.delivered {
		if !done {
			s.InFlight = append(s.InFlight, f.rows[f.sendRow[ord]].Msg)
		}
	}
	slices.Sort(s.InFlight)
	station := make([]int, f.hosts) // every host's station, joiners appended
	for h := range station {
		station[h] = h % f.stations
	}
	for i, ev := range f.rows {
		se := ScheduleEvent{Seq: uint64(i), Tick: uint64(i) + 1, Kind: ev.Kind.String(), Host: int(ev.Host), Peer: -1, From: -1, To: -1}
		switch ev.Kind {
		case Send, Deliver:
			se.Peer, se.Msg = int(ev.Peer), ev.Msg
		case Handoff:
			se.From, se.To = station[ev.Host], int(ev.Arg)
		case Disconnect:
			se.From = station[ev.Host]
		case Reconnect, Join:
			se.To = int(ev.Arg)
		}
		if ev.Kind == Join {
			station = append(station, int(ev.Arg))
		} else if se.To >= 0 {
			station[ev.Host] = se.To
		}
		s.Events = append(s.Events, se)
	}
	return s
}

// recording drives a History with its views and the flat reference
// through one event sequence, drawing every choice from pick(n), which
// returns a number in [0, n) or -1 when the sequence ends.
type recording struct {
	h     *History
	views []*Trace
	ref   *flatHistory

	counts   [][]int // per view and host, the checkpoints taken so far
	inflight []int32 // message ordinals sent and not delivered
	ids      []uint64
	tick     des.Time
	panics   int
}

const recordingViews = 3

func newRecording(hosts, stations int) *recording {
	r := &recording{h: NewHistory(hosts, stations),
		ref: &flatHistory{hosts: hosts, stations: stations, n: hosts, send: make([][]int32, recordingViews), recv: make([][]int32, recordingViews)}}
	for range recordingViews {
		r.views = append(r.views, r.h.View())
		r.counts = append(r.counts, make([]int, hosts))
	}
	return r
}

// same runs one operation on both sides and fails t unless both panic
// with one value or neither does. It reports whether they went through.
func (r *recording) same(t testing.TB, what string, got, want func()) bool {
	t.Helper()
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	pg, pw := catch(got), catch(want)
	if fmt.Sprint(pg) != fmt.Sprint(pw) {
		t.Fatalf("%s: chunked history panics with %v, the flat reference with %v", what, pg, pw)
	}
	if pg != nil {
		r.panics++
	}
	return pg == nil
}

// step records one event chosen through pick; false when pick ran out.
func (r *recording) step(t testing.TB, pick func(n int) int) bool {
	op := pick(16)
	if op < 0 {
		return false
	}
	r.tick += 0.5
	at := r.tick
	n := r.ref.n
	host := func() int32 { return int32(max(pick(n), 0)) }
	station := func() int32 { return int32(max(pick(r.ref.stations), 0)) }
	switch {
	case op < 6: // send
		from := host()
		to := int32((int(from) + 1 + max(pick(n-1), 0)) % n)
		id := uint64(len(r.ids))*7 + 3
		ev := Event{Kind: Send, At: at, Host: from, Peer: to, Msg: id}
		ord := r.h.Append(ev)
		if want := r.ref.append(ev); ord != want {
			t.Fatalf("a send's Append returned ordinal %d, want %d", ord, want)
		}
		for v, tr := range r.views {
			c := r.counts[v][from]
			tr.CountSend(c)
			r.ref.send[v] = append(r.ref.send[v], int32(c))
		}
		r.ids = append(r.ids, id)
		r.inflight = append(r.inflight, ord)
	case op < 11: // deliver a message in flight
		if len(r.inflight) == 0 {
			return true
		}
		ord := r.inflight[max(pick(len(r.inflight)), 0)]
		s := r.ref.rows[r.ref.sendRow[ord]]
		r.deliver(t, Event{Kind: Deliver, At: at, Host: s.Peer, Peer: s.Host, Msg: s.Msg, Arg: ord})
	case op == 11: // a delivery that may name no message in flight, or other hosts
		ord := int32(pick(len(r.ids)+2)) - 1
		id := uint64(max(pick(len(r.ids)+1), 0))*7 + 3
		r.deliver(t, Event{Kind: Deliver, At: at, Host: host(), Peer: host(), Msg: id, Arg: ord})
	case op == 12:
		h := host()
		r.append(Event{Kind: Handoff, At: at, Host: h, Arg: station()})
		r.bump(h)
	case op == 13:
		h := host()
		r.append(Event{Kind: Disconnect, At: at, Host: h})
		r.bump(h)
	case op == 14:
		r.append(Event{Kind: Reconnect, At: at, Host: host(), Arg: station()})
	default: // join, now and then under an id that is not the next one
		h := int32(n)
		if pick(4) == 0 {
			h = int32(max(pick(n+3), 0))
		}
		ev := Event{Kind: Join, At: at, Host: h, Arg: station()}
		if r.same(t, fmt.Sprintf("join of host %d", h), func() { r.h.Append(ev) }, func() { r.ref.append(ev) }) {
			for v := range r.counts {
				r.counts[v] = append(r.counts[v], 1)
			}
		}
	}
	return true
}

// append records a mobility event, which never panics, on both sides.
func (r *recording) append(ev Event) {
	r.h.Append(ev)
	r.ref.append(ev)
}

// bump takes a checkpoint of h in every view with a different odds each.
func (r *recording) bump(h int32) {
	for v := range r.counts {
		if int(r.tick*2)%(v+1) == 0 {
			r.counts[v][h]++
		}
	}
}

func (r *recording) deliver(t testing.TB, ev Event) {
	if !r.same(t, fmt.Sprintf("delivery of message %d as ordinal %d", ev.Msg, ev.Arg),
		func() { r.h.Append(ev) }, func() { r.ref.append(ev) }) {
		return
	}
	r.inflight = slices.DeleteFunc(r.inflight, func(o int32) bool { return o == ev.Arg })
	for v, tr := range r.views {
		if int(ev.At*2)%(v+2) == 0 {
			r.counts[v][ev.Host]++ // a forced checkpoint before the delivery
		}
		c := r.counts[v][ev.Host]
		tr.CountDeliver(c)
		r.ref.recv[v] = append(r.ref.recv[v], int32(c))
	}
}

// check compares every accessor of the history and its views, the
// schedule export, InFlight and each view's index with the reference.
func (r *recording) check(t testing.TB) {
	t.Helper()
	h, f := r.h, r.ref
	if h.Len() != len(f.rows) {
		t.Fatalf("%d rows, want %d", h.Len(), len(f.rows))
	}
	for i := range f.rows {
		if got, want := h.Row(i), f.row(i); got != want {
			t.Fatalf("row %d reads %+v, want %+v", i, got, want)
		}
	}
	sched := h.Schedule("QBC", 9)
	if want := f.schedule("QBC", 9); !reflect.DeepEqual(sched, want) {
		t.Fatalf("Schedule differs from the reference's (%d events, want %d)", len(sched.Events), len(want.Events))
	}
	// The export's JSON imports back to the rows, each at its tick.
	b, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for i, ev := range back.Import() {
		want := f.row(i)
		want.At = des.Time(i + 1)
		if ev != want {
			t.Fatalf("event %d imports as %+v, want %+v", i, ev, want)
		}
	}
	if got, want := h.InFlight(), f.schedule("", 0).InFlight; !slices.Equal(got, want) {
		t.Fatalf("InFlight = %v, want %v", got, want)
	}
	for v, tr := range r.views {
		if tr.NumHosts() != f.n || tr.Len() != len(f.recv[v]) {
			t.Fatalf("view %d: %d hosts and %d events, want %d and %d", v, tr.NumHosts(), tr.Len(), f.n, len(f.recv[v]))
		}
		evs := make([]MessageEvent, tr.Len())
		var to, recv []int32
		lo := 0
		for i := range evs {
			evs[i] = f.event(v, i)
			ev := evs[i]
			if got := tr.Event(i); got != ev {
				t.Fatalf("view %d: Event(%d) = %+v, want %+v", v, i, got, ev)
			}
			if tr.SendCount(i) != ev.SendCount || tr.RecvCount(i) != ev.RecvCount || tr.From(i) != ev.From ||
				tr.To(i) != ev.To || tr.DeliveredAt(i) != ev.DeliveredAt {
				t.Fatalf("view %d: the field accessors of event %d disagree with Event", v, i)
			}
			if i-lo >= len(recv) {
				to, recv, lo = tr.Receipts(i)
				if lo > i || len(to) != len(recv) {
					t.Fatalf("view %d: Receipts(%d) starts at %d with %d receivers and %d counts", v, i, lo, len(to), len(recv))
				}
			}
			if mobile.HostID(to[i-lo]) != ev.To || int(recv[i-lo]) != ev.RecvCount {
				t.Fatalf("view %d: Receipts reads event %d as (%d, %d), want (%d, %d)", v, i, to[i-lo], recv[i-lo], ev.To, ev.RecvCount)
			}
		}
		if !sameTables(tr.Index(), indexOf(evs, f.n)) {
			t.Fatalf("view %d: Index differs from the one built from the reference's events", v)
		}
	}
}

// TestHistoryMatchesFlatReference replays random event sequences, joins
// and malformed deliveries among them, into a chunked history with three
// views and into the flat reference, and compares everything readable
// after each chunk of steps. The long sequences cross the row columns'
// 4 096-entry chunks several times.
func TestHistoryMatchesFlatReference(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		steps int
	}{{1, 40}, {2, 700}, {3, 30000}, {4, 30000}} {
		t.Run(fmt.Sprint("seed", c.seed), func(t *testing.T) {
			src := rng.New(c.seed)
			r := newRecording(4, 3)
			for i := 0; i < c.steps; i++ {
				r.step(t, src.Intn)
				if i%5000 == 4999 {
					r.check(t)
				}
			}
			r.check(t)
			if c.steps >= 30000 && (r.h.Len() < 3*4096+4096 || r.views[0].Len() < 4096 || r.panics == 0) {
				t.Fatalf("sequence too tame: %d rows, %d deliveries, %d refused calls", r.h.Len(), r.views[0].Len(), r.panics)
			}
		})
	}
}

// FuzzHistory decodes an event sequence from the fuzz bytes, one byte per
// choice, and holds the chunked history and its views equal to the flat
// reference: every accessor, the schedule export, InFlight, the index,
// and the panic of a malformed delivery or join, value for value.
func FuzzHistory(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 7, 0, 11, 3, 5, 15, 0, 12, 1, 2, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 6, 0, 6, 0, 11, 0, 3, 11, 9, 1, 15, 3, 9, 13, 2, 1, 14, 2, 0})
	seq := make([]byte, 600)
	src := rng.New(5)
	for i := range seq {
		seq[i] = byte(src.Intn(256))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRecording(3, 2)
		pick := func(n int) int {
			if len(data) == 0 || n <= 0 {
				return -1
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		for r.step(t, pick) {
		}
		r.check(t)
	})
}

// indexOf derives an index from its definition over events given in
// delivery order: a comparison sort of every sender's records.
func indexOf(evs []MessageEvent, hosts int) *Index {
	ix := &Index{Sends: make([][]SendRecord, hosts), Recvs: make([][]int32, hosts), Seq: make([]int32, len(evs))}
	for i, ev := range evs {
		ix.Seq[i] = int32(len(ix.Recvs[ev.To]))
		ix.Recvs[ev.To] = append(ix.Recvs[ev.To], int32(i))
		ix.Sends[ev.From] = append(ix.Sends[ev.From], SendRecord{
			Pos: int32(i), To: int32(ev.To), SendCount: int32(ev.SendCount), RecvCount: int32(ev.RecvCount),
		})
	}
	for _, s := range ix.Sends {
		sort.SliceStable(s, func(a, b int) bool { return s[a].SendCount < s[b].SendCount })
	}
	return ix
}

// TestHistoryAllocs is the memory gate on recording: 2^17 send/deliver
// pairs into a history with three views allocate at most 1.1 times what
// the history and its views keep. A column that grew by append would
// leave its smaller copies behind, about four times its final size.
func TestHistoryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	const hosts, pairs = 50, 1 << 17
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHistory(hosts, 5)
	views := []*Trace{h.View(), h.View(), h.View()}
	for i := 0; i < pairs; i++ {
		from, to := int32(i%hosts), int32((i+1)%hosts)
		ord := h.Append(Event{Kind: Send, At: des.Time(i), Host: from, Peer: to, Msg: uint64(i + 1)})
		for _, v := range views {
			v.CountSend(i / hosts)
		}
		h.Append(Event{Kind: Deliver, At: des.Time(i) + 0.5, Host: to, Peer: from, Msg: uint64(i + 1), Arg: ord})
		for _, v := range views {
			v.CountDeliver(i/hosts + 1)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated, kept := after.TotalAlloc-before.TotalAlloc, after.HeapAlloc-before.HeapAlloc
	ratio := float64(allocated) / float64(kept)
	t.Logf("allocated %d B, kept %d B (%.1f B per message): %.3fx", allocated, kept, float64(kept)/pairs, ratio)
	if ratio > 1.1 {
		t.Fatalf("recording allocates %.2fx what it keeps, want at most 1.1x", ratio)
	}
	runtime.KeepAlive(views)
}
