package trace

import (
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

	kind      []rowKind
	host      []int32
	peer      []int32
	msg       []uint64
	from, to  []int32
	at        []des.Time
	sendRow   []int32
	delivered []bool
	delivRow  []int32
	delivMsg  []int32

	send, recv [][]int32 // per view
}

func (f *flatHistory) add(k rowKind, host, peer mobile.HostID, msg uint64, from, to mobile.MSSID, at des.Time) {
	f.kind = append(f.kind, k)
	f.host = append(f.host, int32(host))
	f.peer = append(f.peer, int32(peer))
	f.msg = append(f.msg, msg)
	f.from = append(f.from, int32(from))
	f.to = append(f.to, int32(to))
	f.at = append(f.at, at)
}

func (f *flatHistory) deliver(ord int32, id uint64, at des.Time) {
	if ord < 0 || int(ord) >= len(f.sendRow) || f.delivered[ord] || f.msg[f.sendRow[ord]] != id {
		panic(fmt.Sprintf("trace: delivery of message %d as ordinal %d, which is unsent, another message or delivered", id, ord))
	}
	f.delivered[ord] = true
	s := f.sendRow[ord]
	f.delivRow = append(f.delivRow, int32(len(f.kind)))
	f.delivMsg = append(f.delivMsg, ord)
	f.add(rowDeliver, mobile.HostID(f.peer[s]), mobile.HostID(f.host[s]), f.msg[s], mobile.NoMSS, mobile.NoMSS, at)
}

func (f *flatHistory) join(host mobile.HostID, to mobile.MSSID, at des.Time) {
	if int(host) != f.n {
		panic(fmt.Sprintf("trace: host %d joins, the next id is %d", host, f.n))
	}
	f.n++
	f.add(rowJoin, host, -1, 0, mobile.NoMSS, to, at)
}

// event is delivered message i as view v sees it.
func (f *flatHistory) event(v, i int) MessageEvent {
	r, k := f.delivRow[i], f.delivMsg[i]
	s := f.sendRow[k]
	return MessageEvent{
		ID: f.msg[r], From: mobile.HostID(f.peer[r]), To: mobile.HostID(f.host[r]),
		SendCount: int(f.send[v][k]), RecvCount: int(f.recv[v][i]),
		SentAt: f.at[s], DeliveredAt: f.at[r],
	}
}

func (f *flatHistory) schedule(protocol string, seed uint64) *Schedule {
	s := &Schedule{Hosts: f.hosts, Stations: f.stations, Protocol: protocol, Seed: seed}
	for ord, done := range f.delivered {
		if !done {
			s.InFlight = append(s.InFlight, f.msg[f.sendRow[ord]])
		}
	}
	slices.Sort(s.InFlight)
	for i := range f.kind {
		s.Events = append(s.Events, ScheduleEvent{
			Seq: uint64(i), Tick: uint64(i) + 1, Kind: f.kind[i].String(),
			Host: int(f.host[i]), Peer: int(f.peer[i]), Msg: f.msg[i], From: int(f.from[i]), To: int(f.to[i]),
		})
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
	host := func() mobile.HostID { return mobile.HostID(max(pick(n), 0)) }
	station := func() mobile.MSSID { return mobile.MSSID(max(pick(r.ref.stations), 0)) }
	switch {
	case op < 6: // send
		from := host()
		to := mobile.HostID((int(from) + 1 + max(pick(n-1), 0)) % n)
		id := uint64(len(r.ids))*7 + 3
		ord := r.h.Send(from, to, id, at)
		if want := int32(len(r.ref.sendRow)); ord != want {
			t.Fatalf("Send returned ordinal %d, want %d", ord, want)
		}
		r.ref.sendRow = append(r.ref.sendRow, int32(len(r.ref.kind)))
		r.ref.delivered = append(r.ref.delivered, false)
		r.ref.add(rowSend, from, to, id, mobile.NoMSS, mobile.NoMSS, at)
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
		k := max(pick(len(r.inflight)), 0)
		ord := r.inflight[k]
		r.deliver(t, ord, r.ids[ord], at)
	case op == 11: // a delivery that may name no message in flight
		ord := int32(pick(len(r.ids)+2)) - 1
		id := uint64(max(pick(len(r.ids)+1), 0))*7 + 3
		r.deliver(t, ord, id, at)
	case op == 12:
		h, from, to := host(), station(), station()
		r.h.Handoff(h, from, to, at)
		r.ref.add(rowHandoff, h, -1, 0, from, to, at)
		r.bump(h)
	case op == 13:
		h, from := host(), station()
		r.h.Disconnect(h, from, at)
		r.ref.add(rowDisconnect, h, -1, 0, from, mobile.NoMSS, at)
		r.bump(h)
	case op == 14:
		h, to := host(), station()
		r.h.Reconnect(h, to, at)
		r.ref.add(rowReconnect, h, -1, 0, mobile.NoMSS, to, at)
	default: // join, now and then under an id that is not the next one
		h, to := mobile.HostID(n), station()
		if pick(4) == 0 {
			h = mobile.HostID(max(pick(n+3), 0))
		}
		if r.same(t, fmt.Sprintf("join of host %d", h), func() { r.h.Join(h, to, at) }, func() { r.ref.join(h, to, at) }) {
			for v := range r.counts {
				r.counts[v] = append(r.counts[v], 1)
			}
		}
	}
	return true
}

// bump takes a checkpoint of h in every view with a different odds each.
func (r *recording) bump(h mobile.HostID) {
	for v := range r.counts {
		if int(r.tick*2)%(v+1) == 0 {
			r.counts[v][h]++
		}
	}
}

func (r *recording) deliver(t testing.TB, ord int32, id uint64, at des.Time) {
	if !r.same(t, fmt.Sprintf("delivery of message %d as ordinal %d", id, ord),
		func() { r.h.Deliver(ord, id, at) }, func() { r.ref.deliver(ord, id, at) }) {
		return
	}
	r.inflight = slices.DeleteFunc(r.inflight, func(o int32) bool { return o == ord })
	to := mobile.HostID(r.ref.host[len(r.ref.host)-1])
	for v, tr := range r.views {
		if int(at*2)%(v+2) == 0 {
			r.counts[v][to]++ // a forced checkpoint before the delivery
		}
		c := r.counts[v][to]
		tr.CountDeliver(c)
		r.ref.recv[v] = append(r.ref.recv[v], int32(c))
	}
}

// check compares every accessor of the history and its views, the
// schedule export, InFlight and each view's index with the reference.
func (r *recording) check(t testing.TB) {
	t.Helper()
	h, f := r.h, r.ref
	if h.Len() != len(f.kind) {
		t.Fatalf("%d rows, want %d", h.Len(), len(f.kind))
	}
	for i := range f.kind {
		if h.Kind(i) != f.kind[i].String() || h.Host(i) != mobile.HostID(f.host[i]) || h.Peer(i) != mobile.HostID(f.peer[i]) ||
			h.Msg(i) != f.msg[i] || h.At(i) != f.at[i] {
			t.Fatalf("row %d reads %s/%d/%d/%d/%v, want %s/%d/%d/%d/%v", i, h.Kind(i), h.Host(i), h.Peer(i), h.Msg(i), h.At(i),
				f.kind[i], f.host[i], f.peer[i], f.msg[i], f.at[i])
		}
	}
	if got, want := h.Schedule("QBC", 9), f.schedule("QBC", 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schedule differs from the reference's (%d events, want %d)", len(got.Events), len(want.Events))
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
		from := mobile.HostID(i % hosts)
		to := mobile.HostID((i + 1) % hosts)
		ord := h.Send(from, to, uint64(i+1), des.Time(i))
		for _, v := range views {
			v.CountSend(i / hosts)
		}
		h.Deliver(ord, uint64(i+1), des.Time(i)+0.5)
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
