package sim

// Differential replay (E24): re-execute a live cluster's recorded
// nondeterminism schedule through the protocol side. The replay
// constructs the schedule's protocol fresh, then walks the recorded
// events in their total order with their recorded logical ticks as the
// clock, mirroring each into the slot the way the generative engine
// mirrors its own — so the protocol re-derives every checkpoint decision
// from the same inputs, and replaycmp.Compare can hold the two executions
// to byte-identical decision logs.

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/wire"
)

// replayRun is the schedule-driven world around a one-slot protocol
// side: what the live cluster keeps that no protocol does — stations,
// in-flight piggybacks, the decision log.
type replayRun struct {
	protoSide

	dec     *replaycmp.Log
	station []mobile.MSSID // current (or last) station per host

	// pending holds each in-flight message's piggyback *as decoded off
	// the wire* — the replay round-trips every send through internal/wire
	// exactly like the live transport, so the delivered control
	// information has the same representation on both sides.
	pending map[uint64]any

	// seq and tick are the schedule position and logical time of the
	// event being applied: the decision log's stamp and the side's clock.
	seq  uint64
	tick des.Time
}

// runSchedule executes Config.Schedule (Run dispatches here after
// validateReplay accepted the configuration).
func runSchedule(cfg Config) (*Result, error) {
	sched := cfg.Schedule
	r := &replayRun{
		dec:     replaycmp.NewLog(sched.Protocol, sched.Hosts),
		station: make([]mobile.MSSID, sched.Hosts),
		pending: make(map[uint64]any),
	}
	for i := range r.station {
		r.station[i] = mobile.MSSID(i % sched.Stations)
	}
	r.protoSide = newProtoSide(1, 1, cfg.Metrics, cfg.Timeline, func(mobile.HostID) des.Time { return r.tick })
	name := ProtocolName(sched.Protocol)
	prunes := indexBased(name)
	r.handoffLog = func(s *slot, h mobile.HostID, to mobile.MSSID) {
		if prunes {
			// The live cluster bounds the switching host's log at the
			// recovery-line frontier right before it ships it; pruning at
			// the same instants is what makes the two logs' counters
			// comparable field for field.
			stable := recovery.StableIndex(s.store, len(s.counts))
			s.mlog.PruneDelivered(h, recovery.Frontier(s.store, h, stable))
		}
		s.mlog.Handoff(h, to)
	}

	// The slot as the live cluster keeps it: the default cost model, and
	// always a trace — the decision log's recovery lines are cut from it.
	scfg := cfg
	scfg.Cost = storage.DefaultCostModel()
	scfg.RecordTrace = true
	mssOf := func(h mobile.HostID) mobile.MSSID { return r.station[h] }
	err := r.initSlot(0, scfg, name, sched.Hosts, mssOf, func(ckpt protocol.Checkpointer, store *storage.Store) (protocol.Protocol, error) {
		ckpt = r.logDecision(ckpt)
		// The one constructor table deliberately kept apart from the
		// registry in internal/protocol: the live cluster builds its
		// protocol through the registry (live.Factory), and an oracle that
		// shared that path would agree with a wiring mistake in it instead
		// of exposing it.
		switch name {
		case TP:
			return protocol.NewTP(sched.Hosts, ckpt, mssOf), nil
		case BCS:
			return protocol.NewBCS(sched.Hosts, ckpt), nil
		case QBC:
			return protocol.NewQBC(sched.Hosts, ckpt, store), nil
		case UNC:
			return protocol.NewUncoordinated(sched.Hosts, ckpt), nil
		}
		return nil, fmt.Errorf("sim: schedule records unreplayable protocol %q (want TP, BCS, QBC or UNC)", name)
	})
	if err != nil {
		return nil, err
	}
	if r.reg != nil {
		r.instrumentSlots()
	}

	// Initial checkpoints at tick 0, before any scheduled event, exactly
	// like the live cluster; then the recorded history, in order.
	r.start(sched.Hosts)
	for _, ev := range sched.Events {
		r.apply(ev)
	}

	// Every send the schedule leaves dangling must still be pending, and
	// nothing else: a mismatch means the walk desynchronized.
	if len(r.pending) != len(sched.InFlight) {
		return nil, fmt.Errorf("sim: replay ends with %d in-flight messages, schedule says %d",
			len(r.pending), len(sched.InFlight))
	}
	for _, id := range sched.InFlight {
		if _, ok := r.pending[id]; !ok {
			return nil, fmt.Errorf("sim: replay delivered message %d the schedule leaves in flight", id)
		}
	}

	s := &r.slots[0]
	r.dec.FinishRecoveryLines(s.store, s.trace)
	res := &Result{
		Config:      cfg,
		FinalHosts:  sched.FinalHosts(),
		EventsFired: uint64(len(sched.Events)),
		Protocols:   []ProtocolResult{r.protocolResult(0)},
		Decisions:   r.dec,
	}
	if cfg.Checks {
		if err := r.finishChecks(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// logDecision wraps the slot's checkpointer the way the live cluster's
// records its own: each decision goes into the log under the schedule
// position of the event that induced it.
func (r *replayRun) logDecision(ckpt protocol.Checkpointer) protocol.Checkpointer {
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		ordinal := r.slots[0].counts[h]
		rec := ckpt(h, index, kind)
		r.dec.RecordCheckpoint(int(h), replaycmp.Checkpoint{
			Seq: r.seq, Ordinal: ordinal, Index: index,
			Kind: kind.String(), Cause: replaycmp.CauseKey(kind, r.causeLane[0]),
		})
		return rec
	}
}

// apply re-executes one recorded event: the replay's own bookkeeping
// around the protocol side's mirroring of it. The decision logs compare
// positionally, so a delivery is logged after everything it induced.
func (r *replayRun) apply(ev trace.ScheduleEvent) {
	r.seq, r.tick = ev.Seq, des.Time(ev.Tick)
	h := mobile.HostID(ev.Host)
	switch ev.Kind {
	case trace.SchedSend:
		to := mobile.HostID(ev.Peer)
		var pb [1]any
		r.onSend(h, to, pb[:])
		// The recorded message id is the flow id, so a replayed timeline
		// lines up with the live cluster's.
		r.sent(ev.Msg, ev.Msg, h, to)
		// Round-trip the piggyback through the wire codec like the live
		// transport; the delivery below hands the decoded form over.
		frame, err := (&wire.Packet{ID: ev.Msg, From: h, To: to, Piggyback: pb[0]}).Marshal()
		if err != nil {
			panic("sim: replay: " + err.Error())
		}
		p, err := wire.Unmarshal(frame)
		if err != nil {
			panic("sim: replay: " + err.Error())
		}
		r.pending[ev.Msg] = p.Piggyback

	case trace.SchedDeliver:
		got, ok := r.pending[ev.Msg]
		if !ok {
			panic(fmt.Sprintf("sim: replay: schedule delivers unknown message %d", ev.Msg))
		}
		delete(r.pending, ev.Msg)
		pb := [1]any{got}
		r.onDeliver(r.tick, h, mobile.HostID(ev.Peer), ev.Msg, ev.Msg, pb[:], r.station[h])
		r.dec.RecordDelivery(ev.Host, replaycmp.Delivery{
			Seq: ev.Seq, Msg: ev.Msg, From: ev.Peer,
			Piggyback: replaycmp.Fingerprint(got), RecvCount: r.slots[0].counts[h],
		})

	case trace.SchedHandoff:
		// Commit the move before the hook: the basic checkpoint the
		// switch induces lands on the new station, as live.
		r.station[h] = mobile.MSSID(ev.To)
		r.onCellSwitch(r.tick, h, mobile.MSSID(ev.From), mobile.MSSID(ev.To))

	case trace.SchedDisconnect:
		r.onDisconnect(r.tick, h, mobile.MSSID(ev.From))

	case trace.SchedReconnect:
		r.onReconnect(r.tick, h, mobile.MSSID(ev.To))

	case trace.SchedJoin:
		// Grow the tables before the hook (live.addHost's order), so the
		// joiner's initial checkpoint sees its station.
		r.station = append(r.station, mobile.MSSID(ev.To))
		r.dec.AddHost()
		r.onJoin(r.tick, h, mobile.MSSID(ev.To))

	default:
		panic(fmt.Sprintf("sim: replay: unknown schedule kind %q", ev.Kind))
	}
}
