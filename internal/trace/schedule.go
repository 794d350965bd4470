package trace

import (
	"fmt"
	"math"
	"slices"

	"mobickpt/internal/des"
)

// ScheduleEvent is one recorded nondeterministic choice.
type ScheduleEvent struct {
	// Seq is the event's position in the recorded total order (dense,
	// starting at 0). Protocol events are serialized under one lock in
	// the live cluster, so the order is real, not reconstructed.
	Seq uint64 `json:"seq"`
	// Tick is the logical clock at the event (strictly increasing along
	// the schedule; History.Schedule writes Seq+1, which is the live
	// cluster's own tick). A replay fires the event at this virtual time,
	// so a replayed live trace carries the original timestamps.
	Tick uint64 `json:"tick"`
	// Kind is the name (Kind.String) of an event kind: every kind is a
	// History row.
	Kind string `json:"kind"`
	// Host is the acting host: the sender, the receiver, the mover, the
	// (dis/re)connector, the joiner, the marker's target or the timer's
	// host; -1 for a marker round's start.
	Host int `json:"host"`
	// Peer is the other endpoint of a message event: the destination of
	// a send, the sender of a deliver. -1 otherwise.
	Peer int `json:"peer"`
	// Msg is the message id of a send/deliver event; 0 otherwise.
	Msg uint64 `json:"msg"`
	// From and To are stations: a handoff carries both, a disconnect
	// only From, a reconnect and a join only To. -1 when absent.
	From int `json:"from"`
	To   int `json:"to"`
}

// Schedule is the serialized nondeterminism of one run — an export of its
// History (History.Schedule), in any world: enough to re-execute the
// exact history through the deterministic replay. The
// protocol's own behaviour is NOT recorded — that is the point: a
// replay re-derives every checkpoint decision from the same inputs, so
// a differ can hold the two executions to byte-identical decisions.
type Schedule struct {
	// Hosts and Stations describe the initial topology (host i starts at
	// station i mod Stations, the placement rule of the engine and the
	// live cluster alike).
	Hosts    int `json:"hosts"`
	Stations int `json:"stations"`
	// Protocol is the protocol under test ("TP", "BCS", "QBC", ...).
	Protocol string `json:"protocol"`
	// Seed is the recording run's seed (informational: the replay never
	// draws randomness).
	Seed uint64 `json:"seed"`
	// Events is the recorded history in serialization order.
	Events []ScheduleEvent `json:"events"`
	// InFlight lists, sorted ascending, the ids of messages sent but
	// never delivered (still queued, or parked at a station for a host
	// that disconnected and never returned). The section is explicit so
	// a replay knows these sends are *supposed* to dangle — Validate
	// cross-checks it against the event list.
	InFlight []uint64 `json:"in_flight"`
}

// FinalHosts returns the host count after all recorded joins.
func (s *Schedule) FinalHosts() int {
	n := s.Hosts
	for _, ev := range s.Events {
		if ev.Kind == Join.String() {
			n++
		}
	}
	return n
}

// Import returns the events of a schedule Validate accepted, as the
// History that exported it recorded them (History.Row): each at its tick,
// a delivery's Arg the message's ordinal — the number of sends before
// its own, which a replay numbers the message with in the protocol side's
// table, whatever ids the schedule uses — a hand-off's, reconnection's
// or join's Arg its station. A schedule is one protocol's, so a clocked
// row's Arg is slot 0.
func (s *Schedule) Import() []Event {
	evs := make([]Event, len(s.Events))
	ords := make(map[uint64]int32) // message id -> ordinal
	for i, se := range s.Events {
		kind, _ := ParseKind(se.Kind)
		ev := Event{At: des.Time(se.Tick), Kind: kind, Host: int32(se.Host)}
		switch kind {
		case Send:
			ords[se.Msg] = int32(len(ords))
			ev.Peer, ev.Msg = int32(se.Peer), se.Msg
		case Deliver:
			ev.Peer, ev.Msg, ev.Arg = int32(se.Peer), se.Msg, ords[se.Msg]
		case Handoff, Reconnect, Join:
			ev.Arg = int32(se.To)
		}
		evs[i] = ev
	}
	return evs
}

// placement is where a schedule's moves have left each host: host h
// starts at station h mod stations; only the hosts that moved are tabled.
type placement struct {
	stations int
	moved    map[int]int
}

func (p placement) of(h int) int {
	if at, ok := p.moved[h]; ok {
		return at
	}
	return h % p.stations
}

// Validate checks the schedule's internal consistency: dense ascending
// sequence numbers, strictly increasing ticks, events that respect the
// worlds' calling discipline (nothing but a reconnection while
// disconnected, deliveries matching prior sends, joins extending the
// host space densely, reconnections at a valid station — the engine's
// hosts reconnect anywhere, the live cluster's where they left —, marker
// rounds of no host), and an InFlight section that equals the set of
// undelivered sends. Whether the protocol has the clocks is the replay's.
func (s *Schedule) Validate() error {
	if s.Hosts <= 1 {
		return fmt.Errorf("schedule: Hosts = %d, need > 1", s.Hosts)
	}
	if s.Stations <= 1 {
		return fmt.Errorf("schedule: Stations = %d, need > 1", s.Stations)
	}
	if s.Protocol == "" {
		return fmt.Errorf("schedule: empty protocol name")
	}
	if s.Hosts > math.MaxInt32 || s.Stations > math.MaxInt32 {
		return fmt.Errorf("schedule: %d hosts on %d stations, past the 32-bit ids of an Event", s.Hosts, s.Stations)
	}
	n := s.Hosts
	lastTick := uint64(0)
	// Per-host state is kept sparse — only hosts that have disconnected,
	// moved or joined appear — so validating costs what the event list
	// costs, whatever host count a (possibly hostile) file claims.
	disconnected := make(map[int]bool)
	where := placement{s.Stations, make(map[int]int)}
	sent := make(map[uint64]ScheduleEvent)
	delivered := make(map[uint64]bool)
	for i, ev := range s.Events {
		if ev.Seq != uint64(i) {
			return fmt.Errorf("schedule: event %d has seq %d", i, ev.Seq)
		}
		if ev.Tick <= lastTick {
			return fmt.Errorf("schedule: event %d tick %d not after %d", i, ev.Tick, lastTick)
		}
		lastTick = ev.Tick
		kind, _ := ParseKind(ev.Kind)
		// A join's Host is the *next* id and a round's is -1 (both checked
		// in their branches); every other event acts on an existing host.
		if kind != Join && kind != Round && (ev.Host < 0 || ev.Host >= n) {
			return fmt.Errorf("schedule: event %d has out-of-range host %d", i, ev.Host)
		}
		if disconnected[ev.Host] && kind != Reconnect {
			return fmt.Errorf("schedule: event %d: host %d has a %s while disconnected", i, ev.Host, ev.Kind)
		}
		switch kind {
		case Send:
			if ev.Peer < 0 || ev.Peer >= n || ev.Peer == ev.Host {
				return fmt.Errorf("schedule: event %d has bad send peer %d", i, ev.Peer)
			}
			if _, dup := sent[ev.Msg]; dup {
				return fmt.Errorf("schedule: event %d resends message %d", i, ev.Msg)
			}
			sent[ev.Msg] = ev
		case Deliver:
			snd, ok := sent[ev.Msg]
			if !ok {
				return fmt.Errorf("schedule: event %d delivers unsent message %d", i, ev.Msg)
			}
			if delivered[ev.Msg] {
				return fmt.Errorf("schedule: event %d redelivers message %d", i, ev.Msg)
			}
			if snd.Peer != ev.Host || snd.Host != ev.Peer {
				return fmt.Errorf("schedule: event %d delivers message %d to %d from %d, sent %d->%d",
					i, ev.Msg, ev.Host, ev.Peer, snd.Host, snd.Peer)
			}
			delivered[ev.Msg] = true
		case Handoff:
			if at := where.of(ev.Host); ev.From != at {
				return fmt.Errorf("schedule: event %d hands host %d off from station %d, but it is at %d",
					i, ev.Host, ev.From, at)
			}
			if ev.To < 0 || ev.To >= s.Stations || ev.To == ev.From {
				return fmt.Errorf("schedule: event %d has bad handoff target %d", i, ev.To)
			}
			where.moved[ev.Host] = ev.To
		case Disconnect:
			disconnected[ev.Host] = true
		case Reconnect:
			if !disconnected[ev.Host] {
				return fmt.Errorf("schedule: event %d: host %d reconnects while connected", i, ev.Host)
			}
			if ev.To < 0 || ev.To >= s.Stations {
				return fmt.Errorf("schedule: event %d reconnects at bad station %d", i, ev.To)
			}
			delete(disconnected, ev.Host)
			where.moved[ev.Host] = ev.To
		case Join:
			if ev.Host != n {
				return fmt.Errorf("schedule: event %d joins host %d, want next id %d", i, ev.Host, n)
			}
			if n > math.MaxInt32 {
				return fmt.Errorf("schedule: event %d joins host %d, past the 32-bit ids of an Event", i, n)
			}
			if ev.To < 0 || ev.To >= s.Stations {
				return fmt.Errorf("schedule: event %d joins at bad station %d", i, ev.To)
			}
			n++
			where.moved[ev.Host] = ev.To
		case Round:
			if ev.Host != -1 {
				return fmt.Errorf("schedule: event %d starts a marker round at host %d, want -1", i, ev.Host)
			}
		case Marker, Tick:
		default:
			return fmt.Errorf("schedule: event %d has kind %q, which no event has", i, ev.Kind)
		}
	}
	// The in-flight section must name exactly the undelivered sends.
	want := make([]uint64, 0, len(sent))
	for id := range sent {
		if !delivered[id] {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	if !slices.Equal(want, s.InFlight) {
		return fmt.Errorf("schedule: in-flight section lists %d messages, not the %d the events leave undelivered, in id order",
			len(s.InFlight), len(want))
	}
	return nil
}
