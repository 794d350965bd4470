package protoside

import (
	"fmt"
	"strconv"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// flushRow is one stable write of a slot's message log: the history
// position of the event that made it, the host whose entries it wrote,
// and how many.
type flushRow struct {
	seq           uint64
	host, entries int32
}

// flushMark is what slot s's log has made stable so far, read before a
// call into the log, or -1 when the slot keeps no decision log and so
// records no flushes.
func (s *Slot) flushMark() int64 {
	if s.Dec == nil {
		return -1
	}
	return s.MLog.Counters().FlushedEntries
}

// noteFlush records the stable write of host h's entries the call since
// mark made, if it made one (a call flushes at most once), in the event
// at history position seq.
func (s *Slot) noteFlush(mark int64, seq uint64, h mobile.HostID) {
	if mark < 0 {
		return
	}
	if n := s.MLog.Counters().FlushedEntries - mark; n > 0 {
		s.flushes = append(s.flushes, flushRow{seq: seq, host: int32(h), entries: int32(n)})
	}
}

// RenderTimeline draws the finished run into tl (nothing when tl is nil):
// one track per host, with its checkpoints, sends, deliveries, log
// flushes, hand-offs, disconnections and join, and a flow per message
// from its send through its delivery to the forced checkpoints that
// delivery induced. Everything is read off the history and the slots'
// decision logs and flush rows, which a world keeps whenever it is asked
// for a timeline; no drawing runs while the run does. Each track's events
// come in the order its host's events were applied, so the export is the
// same in every world that applied the same per-host events — the engine
// at any lane count, the replay of a recording and the live cluster it
// recorded. A message's flow id is its sender in the high 32 bits and the
// sender's send ordinal in the low ones.
func (p *Side) RenderTimeline(tl *obs.Timeline) {
	if tl == nil {
		return
	}
	hosts, stations := p.Hist.Topology()
	r := render{p: p, tl: tl, next: make([][]int, len(p.Slots)), flushAt: make([]int, len(p.Slots))}
	for i := range p.Slots {
		r.next[i] = make([]int, p.Slots[i].Dec.NumHosts())
	}
	station := make([]int32, hosts)
	discAt := make([]des.Time, hosts)
	sent := make([]uint64, hosts)
	for h := range hosts {
		station[h], discAt[h] = int32(h%stations), -1
		tl.SetTrack(h, fmt.Sprintf("MH %d", h))
	}
	// Start: every slot's initial checkpoints, at time 0.
	r.start = true
	for i := range p.Slots {
		for h := range hosts {
			r.checkpoints(i, h)
		}
	}
	r.start = false
	var flows []uint64 // message ordinal -> flow id
	for row := range p.Hist.Len() {
		ev := p.Hist.Row(row)
		h := int(ev.Host)
		r.seq, r.at, r.delivering = uint64(row), float64(ev.At), ev.Kind == trace.Deliver
		switch ev.Kind {
		case trace.Send:
			r.flow = uint64(h)<<32 | sent[h]
			flows = append(flows, r.flow)
			sent[h]++
		case trace.Deliver:
			r.flow = flows[ev.Arg]
			tl.Instant(r.at, h, "deliver", "from", itoa(ev.Peer), "msg", strconv.FormatUint(r.flow, 10))
			tl.FlowStep(r.at, h, "msg-flow", r.flow)
		case trace.Join:
			tl.SetTrack(h, fmt.Sprintf("MH %d (joined)", h))
			tl.Instant(r.at, h, "join", "at", itoa(ev.Arg))
			station, discAt, sent = append(station, ev.Arg), append(discAt, -1), append(sent, 0)
		}
		for i := range p.Slots {
			if ev.Kind == trace.Round {
				// A round's checkpoint is its initiator's, whichever host
				// that is.
				for c := range r.next[i] {
					r.checkpoints(i, c)
				}
			} else {
				r.checkpoints(i, h)
			}
			r.flushes(i)
		}
		switch ev.Kind {
		case trace.Send:
			tl.Instant(r.at, h, "send", "to", itoa(ev.Peer), "msg", strconv.FormatUint(r.flow, 10))
			tl.FlowBegin(r.at, h, "msg-flow", r.flow, "to", itoa(ev.Peer))
		case trace.Deliver:
			tl.FlowEnd(r.at, h, "msg-flow", r.flow)
		case trace.Handoff:
			tl.Instant(r.at, h, "handoff", "from", itoa(station[h]), "to", itoa(ev.Arg))
			station[h] = ev.Arg
		case trace.Disconnect:
			discAt[h] = ev.At
			tl.Instant(r.at, h, "disconnect", "from", itoa(station[h]))
		case trace.Reconnect:
			if discAt[h] >= 0 {
				tl.Span(float64(discAt[h]), float64(ev.At-discAt[h]), h, "disconnected")
				discAt[h] = -1
			}
			tl.Instant(r.at, h, "reconnect", "at", itoa(ev.Arg))
			station[h] = ev.Arg
		}
	}
}

// render walks the slots' decision logs and flush rows beside the
// history: next[i][h] is slot i's next checkpoint of host h to draw,
// flushAt[i] its next flush row.
type render struct {
	p       *Side
	tl      *obs.Timeline
	next    [][]int
	flushAt []int

	// The event being drawn: its history position and time, and the flow
	// of the message it sends or delivers. start marks Start, which the
	// decision logs stamp 0 like the first row: its checkpoints are the
	// initial ones, which no other event of an initial host takes.
	seq        uint64
	at         float64
	flow       uint64
	delivering bool
	start      bool
}

// forced and initial are the decision-log kinds the drawing tells apart.
var forced, initial = storage.Forced.String(), storage.Initial.String()

// checkpoints draws slot i's checkpoints of host h in the event being
// drawn. A forced checkpoint a delivery induced joins the message's flow.
func (r *render) checkpoints(i, h int) {
	s := &r.p.Slots[i]
	log := s.Dec.Checkpoints[h]
	for ; r.next[i][h] < len(log); r.next[i][h]++ {
		c := &log[r.next[i][h]]
		if c.Seq != r.seq || r.start && c.Kind != initial {
			return
		}
		r.tl.Instant(r.at, h, "checkpoint", "proto", s.Name, "kind", c.Kind, "cause", c.Cause, "index", strconv.Itoa(c.Index))
		if r.delivering && c.Kind == forced {
			r.tl.FlowStep(r.at, h, "msg-flow", r.flow)
		}
	}
}

// flushes draws slot i's log flushes in the event being drawn.
func (r *render) flushes(i int) {
	s := &r.p.Slots[i]
	for ; r.flushAt[i] < len(s.flushes) && s.flushes[r.flushAt[i]].seq == r.seq; r.flushAt[i]++ {
		f := s.flushes[r.flushAt[i]]
		r.tl.Instant(r.at, int(f.host), "log-flush", "proto", s.Name, "entries", itoa(f.entries))
	}
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }
