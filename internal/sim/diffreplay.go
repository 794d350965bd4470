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

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/wire"
)

// inFlight is a message sent and not yet delivered: its ordinal in the
// replay's history and its piggyback *as decoded off the wire*, so the
// delivered control information has the live transport's representation.
type inFlight struct {
	ord int32
	pb  any
}

// runSchedule executes Config.Schedule (Run dispatches here after
// validateReplay accepted the configuration): a one-slot protocol side,
// and what the live cluster keeps that neither a protocol nor the side
// does — the messages in flight, by id.
func runSchedule(cfg Config) (*Result, error) {
	sched := cfg.Schedule
	pending := make(map[uint64]inFlight)
	// Always a history and a view of it: the decision log's recovery lines
	// are cut from the view.
	side := protoside.New(1, sched.Hosts, sched.Stations, trace.NewHistory(sched.Hosts, sched.Stations),
		cfg.Metrics, cfg.Timeline)

	// The slot as the live cluster keeps it: the default cost model.
	scfg := cfg
	scfg.Cost = storage.DefaultCostModel()
	name := ProtocolName(sched.Protocol)
	err := scfg.initSlot(side, 0, true, func(ckpt protocol.Checkpointer, store *storage.Store) (protocol.Protocol, error) {
		// The one constructor table deliberately kept apart from the
		// registry in internal/protocol: the live cluster builds its
		// protocol through the registry (live.Factory), and an oracle that
		// shared that path would agree with a wiring mistake in it instead
		// of exposing it.
		switch name {
		case TP:
			return protocol.NewTP(sched.Hosts, ckpt, side.Station), nil
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
	s := &side.Slots[0]
	s.Dec = replaycmp.NewLog(sched.Protocol, sched.Hosts)
	side.Instrument(nil)

	// Initial checkpoints at tick 0, before any scheduled event, exactly
	// like the live cluster; then the recorded history, in order, each
	// event at its recorded tick. The recorded message id is the flow id,
	// as on the live cluster, so a replayed timeline is the live one.
	side.Start()
	for _, ev := range sched.Import() {
		var pb [1]any
		if ev.Kind == trace.Deliver {
			got, ok := pending[ev.Msg]
			if !ok {
				panic(fmt.Sprintf("sim: replay: schedule delivers unknown message %d", ev.Msg))
			}
			delete(pending, ev.Msg)
			pb[0], ev.Arg = got.pb, got.ord
		}
		ord := side.Apply(ev, pb[:])
		if ev.Kind == trace.Send {
			// Round-trip the piggyback through the wire codec like the live
			// transport; the delivery hands the decoded form over.
			frame, err := (&wire.Packet{ID: ev.Msg, From: mobile.HostID(ev.Host), To: mobile.HostID(ev.Peer), Piggyback: pb[0]}).Marshal()
			if err != nil {
				panic("sim: replay: " + err.Error())
			}
			p, err := wire.Unmarshal(frame)
			if err != nil {
				panic("sim: replay: " + err.Error())
			}
			pending[ev.Msg] = inFlight{ord: ord, pb: p.Piggyback}
		}
	}

	// Every send the schedule leaves dangling must still be pending, and
	// nothing else: a mismatch means the walk desynchronized.
	if len(pending) != len(sched.InFlight) {
		return nil, fmt.Errorf("sim: replay ends with %d in-flight messages, schedule says %d",
			len(pending), len(sched.InFlight))
	}
	for _, id := range sched.InFlight {
		if _, ok := pending[id]; !ok {
			return nil, fmt.Errorf("sim: replay delivered message %d the schedule leaves in flight", id)
		}
	}

	s.FinishRecoveryLines()
	res := &Result{
		Config:      cfg,
		FinalHosts:  sched.FinalHosts(),
		EventsFired: uint64(len(sched.Events)),
		Protocols:   []ProtocolResult{protocolResult(side, 0)},
		Decisions:   s.Dec,
	}
	if cfg.Checks {
		if err := side.FinishChecks(res.FinalHosts); err != nil {
			return res, err
		}
	}
	return res, nil
}
