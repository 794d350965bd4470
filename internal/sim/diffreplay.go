package sim

// Differential replay (E24): re-execute a recorded nondeterminism
// schedule — a live cluster's, or any world's exported history — through
// the protocol side. The replay constructs the schedule's protocol fresh,
// then walks the recorded events in their total order with their recorded
// logical ticks as the clock, mirroring each into the slot the way the
// generative engine mirrors its own — so the protocol re-derives every
// checkpoint decision from the same inputs, and replaycmp.Compare can hold
// the two executions to byte-identical decision logs.

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/wire"
)

// replayRun is the schedule-driven world around a one-slot protocol
// side: what the live cluster keeps that neither a protocol nor the side
// does — the messages in flight.
type replayRun struct {
	*protoside.Side

	// pending holds each in-flight message by id: its ordinal in the
	// replay's history and its piggyback *as decoded off the wire* — the
	// replay round-trips every send through internal/wire exactly like the
	// live transport, so the delivered control information has the same
	// representation on both sides.
	pending map[uint64]inFlight
}

type inFlight struct {
	ord int32
	pb  any
}

// runSchedule executes Config.Schedule (Run dispatches here after
// validateReplay accepted the configuration).
func runSchedule(cfg Config) (*Result, error) {
	sched := cfg.Schedule
	r := &replayRun{pending: make(map[uint64]inFlight)}
	// Always a history and a view of it: the decision log's recovery lines
	// are cut from the view.
	r.Side = protoside.New(1, sched.Hosts, sched.Stations, trace.NewHistory(sched.Hosts, sched.Stations),
		cfg.Metrics, cfg.Timeline)

	// The slot as the live cluster keeps it: the default cost model.
	scfg := cfg
	scfg.Cost = storage.DefaultCostModel()
	name := ProtocolName(sched.Protocol)
	err := scfg.initSlot(r.Side, 0, true, func(ckpt protocol.Checkpointer, store *storage.Store) (protocol.Protocol, error) {
		// The one constructor table deliberately kept apart from the
		// registry in internal/protocol: the live cluster builds its
		// protocol through the registry (live.Factory), and an oracle that
		// shared that path would agree with a wiring mistake in it instead
		// of exposing it.
		switch name {
		case TP:
			return protocol.NewTP(sched.Hosts, ckpt, r.Station), nil
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
	s := &r.Slots[0]
	s.Dec = replaycmp.NewLog(sched.Protocol, sched.Hosts)
	r.Instrument(nil)

	// Initial checkpoints at tick 0, before any scheduled event, exactly
	// like the live cluster; then the recorded history, in order.
	r.Start()
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

	s.FinishRecoveryLines()
	res := &Result{
		Config:      cfg,
		FinalHosts:  sched.FinalHosts(),
		EventsFired: uint64(len(sched.Events)),
		Protocols:   []ProtocolResult{protocolResult(r.Side, 0)},
		Decisions:   s.Dec,
	}
	if cfg.Checks {
		if err := r.FinishChecks(res.FinalHosts); err != nil {
			return res, err
		}
	}
	return res, nil
}

// apply re-executes one recorded event, at its recorded tick: the
// replay's own bookkeeping around the protocol side's mirroring of it.
// The side derives each host's station from the moves it mirrors, as
// Schedule.Validate does, so a hand-off's or disconnection's From is the
// side's own.
func (r *replayRun) apply(ev trace.ScheduleEvent) {
	now := des.Time(ev.Tick)
	h := mobile.HostID(ev.Host)
	switch ev.Kind {
	case trace.SchedSend:
		to := mobile.HostID(ev.Peer)
		var pb [1]any
		// The recorded message id is the flow id, as on the live cluster, so
		// a replayed timeline is the live one.
		ord := r.OnSend(now, h, to, ev.Msg, ev.Msg, pb[:])
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
		r.pending[ev.Msg] = inFlight{ord: ord, pb: p.Piggyback}

	case trace.SchedDeliver:
		got, ok := r.pending[ev.Msg]
		if !ok {
			panic(fmt.Sprintf("sim: replay: schedule delivers unknown message %d", ev.Msg))
		}
		delete(r.pending, ev.Msg)
		pb := [1]any{got.pb}
		r.OnDeliver(now, h, mobile.HostID(ev.Peer), ev.Msg, ev.Msg, got.ord, pb[:])

	case trace.SchedHandoff:
		r.OnCellSwitch(now, h, mobile.MSSID(ev.To))

	case trace.SchedDisconnect:
		r.OnDisconnect(now, h)

	case trace.SchedReconnect:
		// The engine's hosts may come back at another station; the live
		// cluster's return where they left.
		r.OnReconnect(now, h, mobile.MSSID(ev.To))

	case trace.SchedJoin:
		r.OnJoin(now, h, mobile.MSSID(ev.To))

	default:
		panic(fmt.Sprintf("sim: replay: unknown schedule kind %q", ev.Kind))
	}
}
