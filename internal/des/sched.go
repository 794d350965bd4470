package des

import "slices"

// Sched is the scheduling surface the world model (mobile, workload)
// programs against, abstracted over the sequential engine and the
// parallel lane kernel. owner is the integer identity whose timeline
// the event belongs to — for this world, the acting mobile host. The
// sequential implementation ignores owners entirely; the parallel one
// maps each owner to a lane.
//
// Route is the one cross-timeline operation: the event is emitted by
// `from` (whose execution order stamps the deterministic tie-break key)
// but fires on `owner`'s timeline. Every other call is self-scheduling
// — the emitter and the owner are the same identity — which is what
// lets lanes run their own queues without synchronizing on every event.
type Sched interface {
	// Now returns the current virtual time on owner's timeline.
	Now(owner int) Time
	// ScheduleArg schedules fn(arg) at absolute time at on owner's own
	// timeline (emitter == owner). Handlers scheduled through a parallel
	// Sched are invoked with a nil *Simulator.
	ScheduleArg(owner int, at Time, label string, fn ArgHandler, arg any)
	// ScheduleArgAfter is ScheduleArg with a delay relative to Now(owner).
	ScheduleArgAfter(owner int, delay Time, label string, fn ArgHandler, arg any)
	// Route schedules fn(arg) at absolute time at on owner's timeline on
	// behalf of emitter from — a cross-timeline message send.
	Route(from, owner int, at Time, label string, fn ArgHandler, arg any)
	// Inline asks to execute, inside the handler now running on owner's
	// timeline, a step of owner's that would otherwise be an event at time
	// at labelled label — one no other timeline can observe, so running it
	// early changes nothing but when it is counted. It is allowed only
	// while a run is in progress and at is strictly before its horizon (an
	// event at exactly the horizon stays an event); an allowed step is
	// counted as a fired event under label, and the caller must then
	// perform it without scheduling it. Refused, the caller schedules it.
	Inline(owner int, at Time, label string) bool
}

// KeyFor builds the deterministic tie-break key for emitter's next
// emission: bit 63 (so FIFO-numbered events — the global timeline —
// always precede keyed events among simultaneous ones), the emitter
// identity, and its per-emitter emission ordinal. Sequential and
// parallel engines stamp identical keys for identical histories, which
// is what makes their tie-breaking — and therefore their entire runs —
// bit-identical.
func KeyFor(emitter int, ordinal uint32) uint64 {
	return 1<<63 | uint64(uint32(emitter))<<32 | uint64(ordinal)
}

// Solo adapts a Simulator to Sched for sequential execution: every
// world event goes through the simulator's pooled fire-and-forget path,
// stamped with the same (emitter, ordinal) tie-break key a parallel
// lane would stamp, so a Solo-driven run is the bit-identical reference
// for every parallel engine.
func Solo(s *Simulator) Sched { return &solo{s: s} }

type solo struct {
	s   *Simulator
	ord []uint32 // per-emitter emission ordinals
}

// key stamps emitter's next emission, growing the ordinal table on
// first sight of a new emitter (world set-up walks them in id order,
// dynamic joins arrive later). Growth is geometric — set-up schedules
// every host once, so an exact-fit regrow per emitter is quadratic in
// the population — and zero-fills, so an emitter's ordinal never depends
// on when the table grew past it.
func (w *solo) key(emitter int) uint64 {
	if emitter >= len(w.ord) {
		w.ord = slices.Grow(w.ord, emitter+1-len(w.ord))[:emitter+1]
	}
	k := KeyFor(emitter, w.ord[emitter])
	w.ord[emitter]++
	return k
}

func (w *solo) Now(int) Time { return w.s.Now() }

func (w *solo) ScheduleArg(owner int, at Time, label string, fn ArgHandler, arg any) {
	w.s.ScheduleArgKeyed(at, w.key(owner), label, fn, arg)
}

func (w *solo) ScheduleArgAfter(owner int, delay Time, label string, fn ArgHandler, arg any) {
	w.s.ScheduleArgKeyed(w.s.Now()+delay, w.key(owner), label, fn, arg)
}

func (w *solo) Route(from, _ int, at Time, label string, fn ArgHandler, arg any) {
	w.s.ScheduleArgKeyed(at, w.key(from), label, fn, arg)
}

// Inline stamps no key: a step that is never queued never ties with
// anything, and the emitter's ordinals still advance in emission order.
func (w *solo) Inline(_ int, at Time, label string) bool { return w.s.inline(at, label) }
