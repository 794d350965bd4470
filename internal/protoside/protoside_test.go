package protoside_test

import (
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/race"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// world is a scripted two-slot world: BCS and UNC ride one history, on a
// clock that ticks once per event.
type world struct {
	*protoside.Side
	tick des.Time
}

func newWorld(t *testing.T) *world {
	t.Helper()
	const hosts, stations = 3, 2
	w := &world{}
	w.Side = protoside.New(2, hosts, stations, trace.NewHistory(hosts, stations), nil)
	for i, build := range []func(protocol.Checkpointer) protocol.Protocol{
		func(c protocol.Checkpointer) protocol.Protocol { return protocol.NewBCS(hosts, c) },
		func(c protocol.Checkpointer) protocol.Protocol { return protocol.NewUncoordinated(hosts, c) },
	} {
		slot := protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel()), Trace: w.Hist.View(), Dec: replaycmp.NewLog("", hosts)}
		err := w.InitSlot(i, slot, true, func(c protocol.Checkpointer, _ *storage.Store) (protocol.Protocol, error) {
			return build(c), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Start()
	return w
}

// apply mirrors ev at the next tick of the clock, numbering a message in
// the side's table by its id, as the engine does.
func (w *world) apply(ev trace.Event) {
	w.tick++
	ev.At = w.tick
	if ev.Kind == trace.Send || ev.Kind == trace.Deliver {
		ev.Arg = int32(ev.Msg)
	}
	w.Apply(ev, nil)
}

// TestSideRecordsOneHistory drives the side through every kind of event —
// with a delivery whose forced checkpoint only one of the two protocols
// takes, and two sends that never arrive, one before the delivered
// message, whose row must then name ordinal 1 — and checks what each
// event left in the one history, the side's in-flight table and each
// slot, and where the side put each host.
func TestSideRecordsOneHistory(t *testing.T) {
	w := newWorld(t)

	// Host 0 hands off from station 0 (a basic checkpoint in both, on
	// station 1), then sends to 1: BCS forces a checkpoint on 1 at the
	// delivery, UNC does not.
	w.apply(trace.Event{Kind: trace.Handoff, Host: 0, Arg: 1})
	w.apply(trace.Event{Kind: trace.Send, Host: 2, Peer: 0, Msg: 9}) // ordinal 0, in flight for good
	w.apply(trace.Event{Kind: trace.Send, Host: 0, Peer: 1, Msg: 7})
	w.apply(trace.Event{Kind: trace.Deliver, Host: 1, Peer: 0, Msg: 7}) // the side names its ordinal, 1
	w.apply(trace.Event{Kind: trace.Disconnect, Host: 2})
	w.apply(trace.Event{Kind: trace.Reconnect, Host: 2, Arg: 1})
	w.apply(trace.Event{Kind: trace.Join, Host: 3, Arg: 0})
	w.apply(trace.Event{Kind: trace.Send, Host: 3, Peer: 2, Msg: 8}) // in flight for good
	const events = 8

	for h, want := range []mobile.MSSID{1, 1, 1, 0} {
		if got := w.Station(mobile.HostID(h)); got != want {
			t.Errorf("host %d at station %d, want %d", h, got, want)
		}
	}
	if ev := w.Hist.Schedule(0, "", 0).Events[0]; ev.From != 0 || ev.To != 1 {
		t.Errorf("hand-off row %+v, want station 0 -> 1", ev)
	}
	for i := range w.Slots {
		if chain := w.Slots[i].Store.Chain(0); chain[0].MSS != 0 || chain[1].MSS != 1 {
			t.Errorf("%s: host 0's checkpoints on stations %d, %d; want 0, 1", w.Slots[i].Name, chain[0].MSS, chain[1].MSS)
		}
	}

	h := w.Hist
	if h.Len() != events {
		t.Fatalf("%d history rows for %d events", h.Len(), events)
	}
	for i := range h.Len() {
		if at := h.Row(i).At; at != des.Time(i+1) {
			t.Fatalf("row %d at %v, recorded during event %d", i, at, i+1)
		}
	}
	sched := h.Schedule(0, "BCS", 0)
	if sched.FinalHosts() != 4 {
		t.Fatalf("one join made %d hosts, want 4", sched.FinalHosts())
	}
	if !slices.Equal(sched.InFlight, []uint64{8, 9}) || !slices.Equal(w.InFlight(), sched.InFlight) {
		t.Fatalf("exported in-flight section %v, the side's %v, want [8 9]", sched.InFlight, w.InFlight())
	}
	if arg := h.Row(3).Arg; arg != 1 {
		t.Fatalf("the delivery row names ordinal %d, want 1", arg)
	}
	for i := range w.Slots {
		s := &w.Slots[i]
		if s.Trace.History() != h || s.Trace.NumHosts() != 4 {
			t.Fatalf("%s: the trace is not a view of the side's history", s.Name)
		}
		if s.Trace.Len() != 1 || s.Trace.Event(0).ID != 7 {
			t.Fatalf("%s: delivered events %d, want message 7 alone", s.Name, s.Trace.Len())
		}
		checkSeqs(t, s, h)
		checkCounts(t, s)
	}
	bcs, unc := w.Slots[0].Trace.Event(0), w.Slots[1].Trace.Event(0)
	if bcs.SendCount != 2 || unc.SendCount != 2 || bcs.RecvCount != 2 || unc.RecvCount != 1 {
		t.Fatalf("counts BCS %d/%d, UNC %d/%d; want 2/2 and 2/1", bcs.SendCount, bcs.RecvCount, unc.SendCount, unc.RecvCount)
	}
	if err := w.FinishChecks(4); err != nil {
		t.Fatal(err)
	}
}

// checkSeqs: every decision-log entry is stamped with the history position
// of the event that caused it (0 for the initial checkpoints).
func checkSeqs(t *testing.T, s *protoside.Slot, h *trace.History) {
	t.Helper()
	rows := h.Schedule(0, s.Name, 0).Events
	for host, cps := range s.Dec.Checkpoints {
		for _, c := range cps {
			if c.Kind == storage.Initial.String() && host < 3 {
				if c.Seq != 0 {
					t.Errorf("%s host %d: initial checkpoint stamped %d", s.Name, host, c.Seq)
				}
				continue
			}
			if r := rows[c.Seq]; r.Host != host {
				t.Errorf("%s host %d: checkpoint %d stamped %d, a row of host %d (%s)", s.Name, host, c.Ordinal, c.Seq, r.Host, r.Kind)
			}
		}
	}
	for host, ds := range s.Dec.Deliveries {
		for _, d := range ds {
			if r := rows[d.Seq]; r.Kind != trace.Deliver.String() || r.Host != host || r.Msg != d.Msg {
				t.Errorf("%s host %d: delivery of %d stamped %d, row %+v", s.Name, host, d.Msg, d.Seq, r)
			}
		}
	}
}

// checkCounts: a slot's two counts for a message are its own sender's and
// receiver's checkpoints up to the send and the delivery.
func checkCounts(t *testing.T, s *protoside.Slot) {
	t.Helper()
	taken := func(h mobile.HostID, by des.Time) int {
		n := 0
		for _, r := range s.Store.Chain(h) {
			if r.TakenAt <= by {
				n++
			}
		}
		return n
	}
	for i := range s.Trace.Len() {
		ev := s.Trace.Event(i)
		if ev.SendCount != taken(ev.From, ev.SentAt) || ev.RecvCount != taken(ev.To, ev.DeliveredAt) {
			t.Errorf("%s message %d: counts %d/%d, the store has %d/%d", s.Name, ev.ID,
				ev.SendCount, ev.RecvCount, taken(ev.From, ev.SentAt), taken(ev.To, ev.DeliveredAt))
		}
	}
}

// rogue is UNC with every event of host h checkpointing host h+1 instead
// (mod 3), marker rounds and timer ticks included, once armed.
type rogue struct {
	protocol.Protocol
	ck    protocol.Checkpointer
	armed bool
}

func (r *rogue) other(h mobile.HostID) {
	if r.armed {
		r.ck((h+1)%3, 0, storage.Basic)
	}
}

func (r *rogue) OnSend(from, _ mobile.HostID) any             { r.other(from); return nil }
func (r *rogue) OnDeliver(h, _ mobile.HostID, _ any)          { r.other(h) }
func (r *rogue) OnCellSwitch(h mobile.HostID, _ mobile.MSSID) { r.other(h) }
func (r *rogue) OnDisconnect(h mobile.HostID)                 { r.other(h) }
func (r *rogue) OnReconnect(h mobile.HostID, _ mobile.MSSID)  { r.other(h) }
func (r *rogue) OnJoin(h mobile.HostID) int64                 { r.other(h); return 0 }
func (r *rogue) BeginSnapshot() []mobile.HostID               { return nil }
func (r *rogue) OnMarker(h mobile.HostID)                     { r.other(h) }
func (r *rogue) ControlMessages() int64                       { return 0 }
func (r *rogue) OnTick(h mobile.HostID)                       { r.other(h) }

// TestCheckpointOfAnotherHostPanics: inside an event of host a the side
// checkpoints a alone, whichever kind of event it is — each subtest is
// named after the protocol hook the rogue checkpoints from — and a
// protocol that checkpoints another host there panics naming both. Every
// world relies on it: the live cluster builds a host's images on that
// host's goroutine, and the lane engine applies one lane's records
// before the next lane's. The rogue is armed after the initial checkpoints
// and, for a delivery, after the send it delivers.
func TestCheckpointOfAnotherHostPanics(t *testing.T) {
	send := trace.Event{Kind: trace.Send, At: 1, Host: 0, Peer: 1, Msg: 7, Arg: 7}
	for _, tc := range []struct {
		entry string
		host  mobile.HostID
		event func(*protoside.Side)
	}{
		{"OnSend", 0, func(p *protoside.Side) { p.Apply(send, nil) }},
		{"OnDeliver", 1, func(p *protoside.Side) {
			p.Apply(trace.Event{Kind: trace.Deliver, At: 2, Host: 1, Peer: 0, Msg: 7, Arg: 7}, nil)
		}},
		{"OnCellSwitch", 2, func(p *protoside.Side) { p.Apply(trace.Event{Kind: trace.Handoff, At: 1, Host: 2, Arg: 1}, nil) }},
		{"OnDisconnect", 0, func(p *protoside.Side) { p.Apply(trace.Event{Kind: trace.Disconnect, At: 1, Host: 0}, nil) }},
		{"OnReconnect", 1, func(p *protoside.Side) { p.Apply(trace.Event{Kind: trace.Reconnect, At: 1, Host: 1, Arg: 0}, nil) }},
		{"OnJoin", 3, func(p *protoside.Side) { p.Apply(trace.Event{Kind: trace.Join, At: 1, Host: 3, Arg: 1}, nil) }},
		{"OnMarker", 2, func(p *protoside.Side) { p.Apply(trace.Event{Kind: trace.Marker, At: 1, Host: 2, Arg: 0}, nil) }},
		{"OnTick", 0, func(p *protoside.Side) { p.Apply(trace.Event{Kind: trace.Tick, At: 1, Host: 0, Arg: 0}, nil) }},
	} {
		t.Run(tc.entry, func(t *testing.T) {
			const hosts = 3
			p := protoside.New(1, hosts, 2, nil, nil)
			var r *rogue
			err := p.InitSlot(0, protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel())}, false,
				func(c protocol.Checkpointer, _ *storage.Store) (protocol.Protocol, error) {
					r = &rogue{Protocol: protocol.NewUncoordinated(hosts, c), ck: c}
					return r, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			p.Start() // initial checkpoints of every host: no one host's event
			if tc.entry == "OnDeliver" {
				p.Apply(send, nil)
			}
			r.armed = true
			defer func() {
				msg := fmt.Sprint(recover())
				other := (tc.host + 1) % 3
				if !strings.Contains(msg, fmt.Sprintf("checkpoint of host %d", other)) ||
					!strings.Contains(msg, fmt.Sprintf("event of host %d", tc.host)) {
					t.Fatalf("checkpoint of host %d in host %d's %s: panic %q, want one naming both hosts",
						other, tc.host, tc.entry, msg)
				}
			}()
			tc.event(p)
		})
	}
}

// quiet is UNC without its hand-off checkpoint: a protocol whose hooks
// allocate nothing, so what an event allocates is the side's own.
type quiet struct{ protocol.Protocol }

func (quiet) OnCellSwitch(mobile.HostID, mobile.MSSID) {}

// TestApplyAllocs: with no registry, timeline or checker, Apply allocates
// nothing for a send, a delivery or a hand-off — history row, in-flight
// table, two slots' trace counts and the calls included — once the
// history's columns have grown, while a thousand messages stay in flight.
// The world passes no piggyback array: the side keeps each message's row
// from its send to its delivery and reuses it. A column allocates one
// 4 096-entry chunk per 4 096 entries, which rounds away per event; an
// allocation of Apply's own would not.
func TestApplyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const hosts, stations, flying = 4, 2, 1000
	p := protoside.New(2, hosts, stations, trace.NewHistory(hosts, stations), nil)
	for i := range p.Slots {
		err := p.InitSlot(i, protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel()), Trace: p.Hist.View()}, false,
			func(c protocol.Checkpointer, _ *storage.Store) (protocol.Protocol, error) {
				return quiet{protocol.NewUncoordinated(hosts, c)}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Start()
	var tick des.Time
	var id uint64
	ends := func(id uint64) (from, to int32) { return int32(id % hosts), int32((id + 1) % hosts) }
	send := func() {
		tick++
		id++
		from, to := ends(id)
		if pb := p.Apply(trace.Event{Kind: trace.Send, At: tick, Host: from, Peer: to, Msg: id, Arg: int32(id)}, nil); len(pb) != len(p.Slots) {
			t.Fatalf("a send returned %d piggybacks for %d slots", len(pb), len(p.Slots))
		}
	}
	for range flying {
		send()
	}
	event := func() {
		send()
		old := id - flying // the oldest message in flight
		from, to := ends(old)
		p.Apply(trace.Event{Kind: trace.Deliver, At: tick, Host: to, Peer: from, Msg: old, Arg: int32(old)}, nil)
		p.Apply(trace.Event{Kind: trace.Handoff, At: tick, Host: from, Arg: int32(1 - p.Station(mobile.HostID(from)))}, nil)
	}
	for range 4096 { // every column past its doubling chunks
		event()
	}
	if allocs := testing.AllocsPerRun(1000, event); allocs != 0 {
		t.Fatalf("a send, a delivery and a hand-off allocate %v times", allocs)
	}
	if n := len(p.InFlight()); n != flying {
		t.Fatalf("%d messages in flight, want %d", n, flying)
	}
	t.Run("NoFreeRowAllocs", sendsAllocs)
}

// sendsAllocs: when no delivered row is ever free — most messages of a
// short run at scale end in flight — a send takes a new record and a new
// row. The table then allocates one chunk of records per 4 096 sends and
// one chunk of rows per 4 096 slot entries — two per 4 096 sends at two
// slots — and its bytes are what it keeps: 8 B a record and 16 B a slot's
// piggyback.
func sendsAllocs(t *testing.T) {
	const hosts, stations, slots, chunk = 4, 2, 2, 4096
	p := protoside.New(slots, hosts, stations, nil, nil)
	for i := range p.Slots {
		err := p.InitSlot(i, protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel())}, false,
			func(c protocol.Checkpointer, _ *storage.Store) (protocol.Protocol, error) {
				return quiet{protocol.NewUncoordinated(hosts, c)}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Start()
	var id uint64
	sends := func() {
		for range chunk {
			from, to := int32(id%hosts), int32((id+1)%hosts)
			p.Apply(trace.Event{Kind: trace.Send, At: des.Time(id), Host: from, Peer: to, Msg: id, Arg: int32(id)}, nil)
			id++
		}
	}
	sends() // past the doubling chunks
	if allocs := testing.AllocsPerRun(8, sends); allocs > 1+slots {
		t.Fatalf("%d sends allocate %v times, want at most a chunk of records and %d of rows", chunk, allocs, slots)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 16 {
		sends()
	}
	runtime.ReadMemStats(&after)
	keep := 16 * chunk * (8 + 16*slots)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.05*float64(keep) {
		t.Fatalf("%d sends allocate %d B, they keep %d", 16*chunk, got, keep)
	}
	if n := len(p.InFlight()); uint64(n) != id {
		t.Fatalf("%d messages in flight, want %d", n, id)
	}
}

// stamp is UNC whose sends piggyback a value of their own — the send's
// ordinal times the slot count plus the slot — and which keeps the last
// piggyback it was delivered.
type stamp struct {
	protocol.Protocol
	slot, slots, sent int
	got               any
}

func (s *stamp) OnSend(_, _ mobile.HostID) any {
	s.sent++
	return (s.sent-1)*s.slots + s.slot
}

func (s *stamp) OnDeliver(_, _ mobile.HostID, pb any) { s.got = pb }

// TestInFlightPastChunk63 holds 2^18 messages in flight at once — past
// the 212 991 rows at which the side's own row chunks, before they were a
// column.Column, overflowed at chunk 63 — with one, two and seven slots:
// every row reads back what its send wrote, InFlight names every message,
// each delivery hands the protocols their own message's row, and 2^18
// more sends after the deliveries take only freed rows.
func TestInFlightPastChunk63(t *testing.T) {
	const hosts, flying = 2, 1 << 18
	for _, slots := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("%d slots", slots), func(t *testing.T) {
			p := protoside.New(slots, hosts, 1, nil, nil)
			protos := make([]*stamp, slots)
			for i := range slots {
				err := p.InitSlot(i, protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel())}, false,
					func(c protocol.Checkpointer, _ *storage.Store) (protocol.Protocol, error) {
						protos[i] = &stamp{Protocol: protocol.NewUncoordinated(hosts, c), slot: i, slots: slots}
						return protos[i], nil
					})
				if err != nil {
					t.Fatal(err)
				}
			}
			p.Start()
			var ord int
			send := func(n int) []any {
				ord++
				return p.Apply(trace.Event{Kind: trace.Send, At: des.Time(ord), Host: 0, Peer: 1, Msg: uint64(n), Arg: int32(n)}, nil)
			}
			rows := make([][]any, flying)
			for n := range flying {
				rows[n] = send(n)
			}
			for n, row := range rows {
				for i, v := range row {
					if want := n*slots + i; v != want {
						t.Fatalf("message %d, slot %d: row reads %v, want %d", n, i, v, want)
					}
				}
			}
			ids := p.InFlight()
			if len(ids) != flying {
				t.Fatalf("%d messages in flight, want %d", len(ids), flying)
			}
			for n, id := range ids {
				if id != uint64(n) {
					t.Fatalf("in-flight id %d is %d", n, id)
				}
			}
			held := make(map[*any]bool, flying)
			for n, row := range rows {
				held[&row[0]] = true
				ord++
				p.Apply(trace.Event{Kind: trace.Deliver, At: des.Time(ord), Host: 1, Peer: 0, Msg: uint64(n), Arg: int32(n)}, nil)
				for i, s := range protos {
					if want := n*slots + i; s.got != want {
						t.Fatalf("delivery of message %d handed slot %d %v, want %d", n, i, s.got, want)
					}
				}
			}
			for n := range flying {
				if row := send(n); !held[&row[0]] {
					t.Fatalf("send %d after every delivery took a new row", flying+n)
				}
			}
		})
	}
}

// TestMisnumberedMessagePanics: a delivery of a message that is not in
// flight — a number past the end of the side's table, or a record already
// delivered — panics naming the message, as it does wherever the engine
// or the live cluster numbers a delivery wrong; so does a send of a
// number still in flight.
func TestMisnumberedMessagePanics(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		ev         trace.Event
	}{
		{"past the end", "delivery of message 9\\b.*not in flight", trace.Event{Kind: trace.Deliver, Host: 1, Peer: 0, Msg: 9}},
		{"delivered", "delivery of message 1\\b.*not in flight", trace.Event{Kind: trace.Deliver, Host: 2, Peer: 1, Msg: 1}},
		{"sent twice", "send of message 0\\b.*in flight", trace.Event{Kind: trace.Send, Host: 2, Peer: 0, Msg: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			w.apply(trace.Event{Kind: trace.Send, Host: 0, Peer: 1, Msg: 0})
			w.apply(trace.Event{Kind: trace.Send, Host: 1, Peer: 2, Msg: 1})
			w.apply(trace.Event{Kind: trace.Deliver, Host: 2, Peer: 1, Msg: 1})
			defer func() {
				if msg := fmt.Sprint(recover()); !regexp.MustCompile(tc.want).MatchString(msg) {
					t.Fatalf("panic %q, want one matching %q", msg, tc.want)
				}
			}()
			w.apply(tc.ev)
		})
	}
}
