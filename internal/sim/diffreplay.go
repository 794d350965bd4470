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
	"slices"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/wire"
)

// runSchedule executes Config.Schedule (Run dispatches here after
// validateReplay accepted the configuration) on a one-slot protocol side.
// The side keeps the messages in flight; the replay overwrites each
// send's piggyback with what the wire codec decodes of it, so the
// delivered control information has the live transport's representation.
func runSchedule(cfg Config) (*Result, error) {
	sched := cfg.Schedule
	// Always a history and a view of it: the decision log's recovery lines
	// are cut from the view.
	side := protoside.New(1, sched.Hosts, sched.Stations, trace.NewHistory(sched.Hosts, sched.Stations),
		cfg.Metrics)

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
		case CL:
			return protocol.NewChandyLamport(sched.Hosts, ckpt), nil
		case PS:
			return protocol.NewPrakashSinghal(sched.Hosts, ckpt), nil
		case MS:
			return protocol.NewMS(sched.Hosts, ckpt), nil
		}
		return nil, fmt.Errorf("sim: schedule records protocol %q, which the replay cannot build", name)
	})
	if err != nil {
		return nil, err
	}
	s := &side.Slots[0]
	s.Dec = replaycmp.NewLog(sched.Protocol, sched.Hosts)
	side.Instrument(nil)

	// Initial checkpoints at tick 0, before any scheduled event, exactly
	// like the live cluster; then the recorded history, in order, each
	// event at its recorded tick. The timeline is drawn from the history
	// after the walk, as the live cluster draws its own, so a replayed
	// timeline is the live one.
	side.Start()
	for _, ev := range sched.Import() {
		pb := side.Apply(ev, nil)
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
			pb[0] = p.Piggyback
		}
	}

	// The side must hold the schedule's in-flight section — the sends it
	// leaves undelivered, in id order (Validate) — and nothing else: a
	// mismatch means the walk desynchronized.
	if got := side.InFlight(); !slices.Equal(got, sched.InFlight) {
		return nil, fmt.Errorf("sim: replay ends with %d in-flight messages, schedule says %d (or other ids)",
			len(got), len(sched.InFlight))
	}

	side.FinishTraffic()
	s.FinishRecoveryLines()
	side.RenderTimeline(cfg.Timeline)
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
