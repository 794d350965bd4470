package sim

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/trace"
)

// The protocol side runs beside the world (DESIGN "The protocol side runs
// beside the world"). Every world hands the protocol side one trace.Event
// per event — send, delivery, move, join, marker round, marker, timer
// tick — through one entry point, protoside.Side.Apply, which keeps each
// message's piggybacks from its send to its delivery; the engine's queue
// carries the bare events, and apply is the only place the engine calls
// Apply, on one goroutine at a time. The GC tick rides the queue as an
// event of no kind: collect is the world's own call, not a protocol event.
// A sequential run ships the events in chunks to a consumer goroutine,
// which applies them in push order, and drains the queue only where the
// world reads protocol state: once a marker round has started (the slot's
// Targets) and at the end. On the lane engine each lane buffers its
// events, and the coordinator applies every buffer, lane by lane, each
// time the lanes park (applyLanes): a host's events all come from its own
// lane, in its order, and a cross-lane delivery lands in a later window
// than its send. Runs with CheckpointLatency, whose ExtraDelay reads what
// the last operation's checkpoints cost, apply each event in line, as the
// coordinator does its own.

// chunkEvents is the events one chunk ships: 32 kB, so the chunks in
// circulation stay cache-sized. E41's sweep from 128 to 32 768 entries
// found none faster, and every size above 2 048 raised peak RSS.
const chunkEvents = 1024

// chunksInFlight is the chunks one run makes: the world fills one while
// the consumer works through the others.
const chunksInFlight = 4

type chunk struct {
	n   int
	evs [chunkEvents]trace.Event
}

// pipeline carries one sequential run's events from the world goroutine
// to the consumer goroutine. It starts at the first event (startPipe),
// so a run that pushes none makes nothing.
type pipeline struct {
	//guard:none the world goroutine's: the chunk being filled
	fill *chunk
	//guard:none the world goroutine's: empty chunks, neither filled nor shipped
	spare []*chunk
	//guard:none the world goroutine's: chunks shipped and not yet back
	out int
	//guard:none channel operations synchronize themselves; full has room for every chunk, so shipping never blocks
	full chan *chunk
	//guard:none channel operations synchronize themselves; back has room for every chunk, so the consumer never blocks
	back chan *chunk
	//guard:none closed by the consumer goroutine when it exits
	done chan struct{}
	//guard:none the consumer goroutine's: written before it closes done, read by the world after
	failure any
}

// push hands one event to the protocol side: from a lane handler,
// appended to its lane's buffer; applied in line when the run applies in
// line; else appended to the chunk being filled, which ships when full.
func (e *engine) push(ev trace.Event) {
	if e.core != nil && !e.inGlobalPhase {
		l := e.laneOf(mobile.HostID(ev.Host))
		e.laneEvents[l] = append(e.laneEvents[l], ev)
		return
	}
	if e.inline {
		e.apply(ev)
		return
	}
	p := e.pipe
	if p == nil {
		p = e.startPipe()
	}
	c := p.fill
	c.evs[c.n] = ev
	c.n++
	if c.n == chunkEvents {
		p.full <- c
		p.out++
		p.fill = e.nextChunk()
	}
}

// apply hands one event to the protocol side, or collects on a GC tick.
func (e *engine) apply(ev trace.Event) {
	if ev.Kind == 0 {
		e.collect()
		return
	}
	e.Apply(ev, nil)
}

// applyLanes applies every lane's buffered events, lane by lane, each
// lane's in push order, and empties the buffers. The lane engine's
// coordinator calls it each time the lanes park (pdes.CoreConfig.Parked),
// so a global step and the end of the run find them empty.
//
//lane:stopped runs on the coordinator with every lane parked
func (e *engine) applyLanes() {
	for l, evs := range e.laneEvents {
		for _, ev := range evs {
			e.apply(ev)
		}
		e.laneEvents[l] = evs[:0]
	}
}

// startPipe makes the pipeline and its chunks and starts the consumer.
// Both channels have room for every chunk, so neither side's send blocks.
func (e *engine) startPipe() *pipeline {
	p := &pipeline{
		fill: new(chunk),
		full: make(chan *chunk, chunksInFlight),
		back: make(chan *chunk, chunksInFlight),
		done: make(chan struct{}),
	}
	for range chunksInFlight - 1 {
		p.spare = append(p.spare, new(chunk))
	}
	e.pipe = p
	go e.consume(p)
	return p
}

// consume applies every shipped chunk in order and sends it back. A panic
// ends the consumer; the world re-raises it (await).
func (e *engine) consume(p *pipeline) {
	defer close(p.done)
	defer func() { p.failure = recover() }()
	for c := range p.full {
		for _, ev := range c.evs[:c.n] {
			e.apply(ev)
		}
		p.back <- c
	}
}

// nextChunk is an empty chunk to fill: a spare one, else the next one
// the consumer sends back.
func (e *engine) nextChunk() *chunk {
	p := e.pipe
	if k := len(p.spare); k > 0 {
		c := p.spare[k-1]
		p.spare = p.spare[:k-1]
		return c
	}
	return e.await()
}

// await receives the oldest shipped chunk back and empties it. A
// consumer that died is never waited on: its panic is re-raised here, on
// the world goroutine, with the same value.
func (e *engine) await() *chunk {
	p := e.pipe
	select {
	case c := <-p.back:
		p.out--
		c.n = 0
		return c
	case <-p.done:
		panic(p.failure)
	}
}

// drain returns once the consumer has applied every event pushed so
// far: until its next push the world owns the protocol side.
func (e *engine) drain() {
	p := e.pipe
	if p == nil {
		return
	}
	if p.fill.n > 0 {
		p.full <- p.fill
		p.out++
		p.fill = nil
	}
	for p.out > 0 {
		p.spare = append(p.spare, e.await())
	}
	if p.fill == nil {
		p.fill = e.nextChunk()
	}
}

// stopPipe ends the consumer and waits for it, so no goroutine outlives
// the run. The run's end drains first; a world that panicked does not,
// and the consumer applies what it was sent before it sees full closed.
func (e *engine) stopPipe() {
	if p := e.pipe; p != nil {
		close(p.full)
		<-p.done
	}
}
