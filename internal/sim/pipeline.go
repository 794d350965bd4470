package sim

import (
	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

// The protocol side runs beside the world (DESIGN "The protocol side runs
// beside the world"). Every call the engine makes into protoside.Side on
// behalf of an event — a send, a delivery, a move, a join, a marker, a
// timer tick, a GC tick — is one record, and apply is the only place it
// makes them, on one goroutine at a time. A record carries the values of
// its call and nothing else: the side keeps its own clock and station
// table, so it never asks the world anything. A sequential run ships the
// records in chunks to a consumer goroutine, which applies them in push
// order, so every protocol sees the same calls with the same values in the
// same order as if the world had made them itself. The world drains the
// queue — waits until the consumer has applied everything — only where it
// reads protocol state: before a marker round starts (BeginSnapshot
// returns the round's targets) and at the end of the run. On the lane
// engine each lane appends its records to its own buffer, and the
// coordinator applies every buffer, lane by lane, each time the lanes park
// (applyLanes): a host's records all come from its own lane, in its order,
// and a cross-lane delivery lands at least one lookahead after its send,
// in a later window. Runs with CheckpointLatency, whose ExtraDelay reads
// what the last operation's checkpoints cost, apply each record in line,
// on the goroutine that pushes it, as the coordinator does its own.

// recKind names the call a record makes into the protocol side.
type recKind uint8

const (
	recSend recKind = iota + 1
	recDeliver
	recSwitch
	recDisconnect
	recReconnect
	recJoin
	recMarker
	recTick
	recGC
)

// record is one call into the protocol side.
type record struct {
	at   des.Time // the event's time
	id   uint64   // message id (send, deliver)
	flow uint64   // timeline flow id (send, deliver)
	pl   *payload // the message's carrier (send, deliver)
	host int32    // the acting host: sender, receiver, mover, joiner, marker or tick target; -1 for gc
	peer int32    // the receiver of a send, the sender of a delivery, the slot of a marker or tick
	mss  int32    // the station a hand-off, reconnection or join arrives at
	kind recKind
}

// chunkRecords is the records one chunk ships: 48 kB, so the chunks in
// circulation stay cache-sized. E41's sweep from 128 to 32 768 records
// found none faster, and every size above 2 048 raised peak RSS.
const chunkRecords = 1024

// chunksInFlight is the chunks one run makes: the world fills one while
// the consumer works through the others.
const chunksInFlight = 4

type chunk struct {
	n    int
	recs [chunkRecords]record
}

// pipeline carries one sequential run's records from the world goroutine
// to the consumer goroutine. It starts at the first record (startPipe),
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

// push hands one call to the protocol side: from a lane handler, appended
// to its lane's buffer; applied in line when the run applies in line;
// else appended to the chunk being filled, which ships when full.
func (e *engine) push(r record) {
	if e.core != nil && !e.inGlobalPhase {
		l := e.laneOf(mobile.HostID(r.host))
		e.laneRecs[l] = append(e.laneRecs[l], r)
		return
	}
	if e.inline {
		e.apply(&r)
		e.reclaim(&r)
		return
	}
	p := e.pipe
	if p == nil {
		p = e.startPipe()
	}
	c := p.fill
	c.recs[c.n] = r
	c.n++
	if c.n == chunkRecords {
		p.full <- c
		p.out++
		p.fill = e.nextChunk()
	}
}

// apply makes one record's call into the protocol side.
func (e *engine) apply(r *record) {
	h := mobile.HostID(r.host)
	switch r.kind {
	case recSend:
		e.OnSend(r.at, h, mobile.HostID(r.peer), r.id, r.flow, r.pl.piggyback)
	case recDeliver:
		// The network numbers its messages from 0 in send order, as the
		// history does when there is one (a sequential run), so the id is
		// the message's ordinal.
		e.OnDeliver(r.at, h, mobile.HostID(r.peer), r.id, r.flow, int32(r.id), r.pl.piggyback)
		clear(r.pl.piggyback)
	case recSwitch:
		e.OnCellSwitch(r.at, h, mobile.MSSID(r.mss))
	case recDisconnect:
		e.OnDisconnect(r.at, h)
	case recReconnect:
		e.OnReconnect(r.at, h, mobile.MSSID(r.mss))
	case recJoin:
		e.OnJoin(r.at, h, mobile.MSSID(r.mss))
	case recMarker:
		e.OnMarker(r.at, int(r.peer), h)
	case recTick:
		e.OnTick(r.at, int(r.peer), h)
	case recGC:
		e.collect()
	}
}

// reclaim returns an applied delivery's carrier to the world's free list:
// every consumer has seen it.
func (e *engine) reclaim(r *record) {
	if r.kind == recDeliver {
		lane := e.laneOf(mobile.HostID(r.host))
		e.plFree[lane] = append(e.plFree[lane], r.pl)
	}
}

// applyLanes applies every lane's buffered records, lane by lane, each
// lane's in push order, and empties the buffers. The lane engine's
// coordinator calls it each time the lanes park (pdes.CoreConfig.Parked),
// so a global step and the end of the run find them empty.
//
//lane:stopped runs on the coordinator with every lane parked
func (e *engine) applyLanes() {
	for l, recs := range e.laneRecs {
		for i := range recs {
			e.apply(&recs[i])
			e.reclaim(&recs[i])
		}
		e.laneRecs[l] = recs[:0]
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
		for i := range c.n {
			e.apply(&c.recs[i])
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

// await receives the oldest shipped chunk back, reclaims its carriers and
// empties it. A consumer that died is never waited on: its panic is
// re-raised here, on the world goroutine, with the same value.
func (e *engine) await() *chunk {
	p := e.pipe
	select {
	case c := <-p.back:
		p.out--
		for i := range c.n {
			e.reclaim(&c.recs[i])
		}
		c.n = 0
		return c
	case <-p.done:
		panic(p.failure)
	}
}

// drain returns once the consumer has applied every record pushed so
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
