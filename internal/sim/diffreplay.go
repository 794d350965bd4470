package sim

// Differential replay (E24): re-execute a live cluster's recorded
// nondeterminism schedule through the deterministic engine. The replay
// constructs the schedule's protocol fresh, then walks the recorded
// events in their total order at their recorded logical ticks, invoking
// the same protocol hooks in the same per-event order the live cluster
// uses — so the protocol re-derives every checkpoint decision from the
// same inputs, and replaycmp.Compare can hold the two executions to
// byte-identical decision logs.

import (
	"fmt"

	"mobickpt/internal/check"
	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/wire"
)

// replayRun is the schedule-driven engine state: one protocol, the flat
// per-host tables the live cluster keeps, and the in-flight piggybacks.
type replayRun struct {
	cfg   Config
	sched *trace.Schedule
	sim   *des.Simulator

	proto protocol.Protocol
	store *storage.Store
	tr    *trace.Trace
	lg    *mlog.Log
	ck    *check.Runtime
	dec   *replaycmp.Log

	counts  []int // checkpoints per host (incl. initial)
	station []int // current (or last) station per host

	// indexBased is the registry's verdict on the schedule's protocol:
	// its recovery lines are index cuts, so hand-offs prune the message
	// log at the frontier (as the live cluster's do) and the end-of-run
	// checks sweep the same-index lines.
	indexBased bool

	// pending holds each in-flight message's piggyback *as decoded off
	// the wire* — the replay round-trips every send through internal/wire
	// exactly like the live transport, so the delivered control
	// information has the same representation on both sides.
	pending map[uint64]any

	causes     map[string]int64
	frameBytes int64

	// cause/curSeq/curTick mirror the live cluster's per-event recording
	// state: set before each protocol hook, read by the checkpointer.
	cause   string
	curSeq  uint64
	curTick des.Time
}

// runSchedule executes Config.Schedule (Run dispatches here after
// validateReplay accepted the configuration).
func runSchedule(cfg Config) (*Result, error) {
	sched := cfg.Schedule
	r := &replayRun{
		cfg:     cfg,
		sched:   sched,
		sim:     des.NewWith(cfg.Queue),
		store:   storage.NewStore(storage.DefaultCostModel()),
		tr:      trace.New(sched.Hosts),
		dec:     replaycmp.NewLog(sched.Protocol, sched.Hosts),
		counts:  make([]int, sched.Hosts),
		station: make([]int, sched.Hosts),
		pending: make(map[uint64]any),
		causes:  make(map[string]int64),
	}
	for i := range r.station {
		r.station[i] = i % sched.Stations
	}
	r.indexBased = indexBased(ProtocolName(sched.Protocol))
	var err error
	if r.lg, err = cfg.newMessageLog(); err != nil {
		return nil, err
	}

	mssOf := func(h mobile.HostID) mobile.MSSID { return mobile.MSSID(r.station[h]) }
	ckpt := r.checkpointer()
	// The one constructor table deliberately kept apart from the registry
	// in internal/protocol: the live cluster builds its protocol through
	// the registry (live.Factory), and an oracle that shared that path
	// would agree with a wiring mistake in it instead of exposing it.
	switch sched.Protocol {
	case string(TP):
		r.proto = protocol.NewTP(sched.Hosts, ckpt, mssOf)
	case string(BCS):
		r.proto = protocol.NewBCS(sched.Hosts, ckpt)
	case string(QBC):
		r.proto = protocol.NewQBC(sched.Hosts, ckpt, r.store)
	case string(UNC):
		r.proto = protocol.NewUncoordinated(sched.Hosts, ckpt)
	default:
		return nil, fmt.Errorf("sim: schedule records unreplayable protocol %q (want TP, BCS, QBC or UNC)", sched.Protocol)
	}
	if cfg.Checks {
		r.ck = check.NewRuntime(sched.Protocol, r.proto, r.store, r.sim.Now)
	}

	// Initial checkpoints, exactly like the live cluster: cause "init" at
	// tick 0, before any scheduled event.
	r.cause = "init"
	r.proto.Init()
	if r.ck != nil {
		r.ck.AfterInit(sched.Hosts)
	}

	// One self-rescheduling walker fires each recorded event at its
	// recorded tick — the des clock replays the live logical clock.
	events := sched.Events
	if len(events) > 0 {
		idx := 0
		var step des.Handler
		step = func(s *des.Simulator, now des.Time) {
			r.apply(events[idx])
			idx++
			if idx < len(events) {
				s.Schedule(des.Time(events[idx].Tick), "replay", step)
			}
		}
		r.sim.Schedule(des.Time(events[0].Tick), "replay", step)
		r.sim.Run(des.Time(events[len(events)-1].Tick))
	}

	// Every send the schedule leaves dangling must still be pending, and
	// nothing else: a mismatch means the walker desynchronized.
	if len(r.pending) != len(sched.InFlight) {
		return nil, fmt.Errorf("sim: replay ends with %d in-flight messages, schedule says %d",
			len(r.pending), len(sched.InFlight))
	}
	for _, id := range sched.InFlight {
		if _, ok := r.pending[id]; !ok {
			return nil, fmt.Errorf("sim: replay delivered message %d the schedule leaves in flight", id)
		}
	}

	r.dec.FinishRecoveryLines(r.store, r.tr)
	res := r.result()
	if r.ck != nil {
		if err := r.finishChecks(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkpointer mirrors the live cluster's: record on stable storage at
// the host's current station stamped with the inducing event's tick,
// then log the decision under that event's schedule position.
func (r *replayRun) checkpointer() protocol.Checkpointer {
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		rec := r.store.Take(h, mobile.MSSID(r.station[h]), index, kind, r.curTick)
		seq := r.counts[h]
		r.counts[h]++
		key := replaycmp.CauseKey(kind, r.cause)
		r.causes[key]++
		r.dec.RecordCheckpoint(int(h), replaycmp.Checkpoint{
			Seq: r.curSeq, Ordinal: seq, Index: index,
			Kind: kind.String(), Cause: key,
		})
		return rec
	}
}

// apply re-executes one recorded event. The per-kind order of protocol
// hook, trace record, decision record and log activity is the live
// cluster's, verbatim — the decision logs compare positionally, so the
// two sides must observe each event through the same sequence.
func (r *replayRun) apply(ev trace.ScheduleEvent) {
	r.curSeq = ev.Seq
	r.curTick = des.Time(ev.Tick)
	h := mobile.HostID(ev.Host)
	switch ev.Kind {
	case trace.SchedSend:
		r.cause = "send"
		to := mobile.HostID(ev.Peer)
		pb := r.proto.OnSend(h, to)
		r.tr.RecordSend(ev.Msg, h, to, r.counts[h], r.curTick)
		if r.ck != nil {
			r.ck.AfterSend(h, pb)
		}
		// Round-trip the piggyback through the wire codec like the live
		// transport; the delivery below hands the decoded form over.
		frame, err := (&wire.Packet{ID: ev.Msg, From: h, To: to, Piggyback: pb}).Marshal()
		if err != nil {
			panic("sim: replay: " + err.Error())
		}
		p, err := wire.Unmarshal(frame)
		if err != nil {
			panic("sim: replay: " + err.Error())
		}
		r.frameBytes += int64(len(frame))
		r.pending[ev.Msg] = p.Piggyback

	case trace.SchedDeliver:
		r.cause = "deliver"
		pb, ok := r.pending[ev.Msg]
		if !ok {
			panic(fmt.Sprintf("sim: replay: schedule delivers unknown message %d", ev.Msg))
		}
		delete(r.pending, ev.Msg)
		from := mobile.HostID(ev.Peer)
		r.proto.OnDeliver(h, from, pb)
		if r.ck != nil {
			r.ck.AfterDeliver(h, from, pb)
		}
		r.tr.RecordDeliver(ev.Msg, r.counts[h], r.curTick)
		r.dec.RecordDelivery(int(h), replaycmp.Delivery{
			Seq: ev.Seq, Msg: ev.Msg, From: ev.Peer,
			Piggyback: replaycmp.Fingerprint(pb), RecvCount: r.counts[h],
		})
		if r.lg != nil {
			r.lg.Append(h, from, ev.Msg, r.counts[h], r.curTick, mobile.MSSID(r.station[h]))
		}

	case trace.SchedHandoff:
		r.cause = "switch"
		// Commit the move before the hook: the basic checkpoint the
		// switch induces lands on the new station, as live.
		r.station[h] = ev.To
		r.proto.OnCellSwitch(h, mobile.MSSID(ev.To))
		if r.ck != nil {
			r.ck.AfterCellSwitch(h)
		}
		r.tr.RecordMobility(h, trace.Handoff, mobile.MSSID(ev.From), mobile.MSSID(ev.To), r.curTick)
		if r.lg != nil {
			if r.indexBased {
				// The live cluster bounds the switching host's log at the
				// recovery-line frontier right before it ships it; pruning
				// at the same instants is what makes the two logs'
				// counters comparable field for field.
				stable := recovery.StableIndex(r.store, len(r.counts))
				r.lg.PruneDelivered(h, recovery.Frontier(r.store, h, stable))
			}
			r.lg.Handoff(h, mobile.MSSID(ev.To))
		}

	case trace.SchedDisconnect:
		r.cause = "disconnect"
		r.proto.OnDisconnect(h)
		if r.ck != nil {
			r.ck.AfterDisconnect(h)
		}
		r.tr.RecordMobility(h, trace.Disconnect, mobile.MSSID(ev.From), mobile.NoMSS, r.curTick)
		if r.lg != nil {
			r.lg.Flush(h)
		}

	case trace.SchedReconnect:
		r.cause = "reconnect"
		r.proto.OnReconnect(h, mobile.MSSID(ev.To))
		if r.ck != nil {
			r.ck.AfterReconnect(h)
		}
		r.tr.RecordMobility(h, trace.Reconnect, mobile.NoMSS, mobile.MSSID(ev.To), r.curTick)

	case trace.SchedJoin:
		// Grow the tables before the hook (live.addHost's order), so the
		// joiner's initial checkpoint sees its station and zero count.
		r.station = append(r.station, ev.To)
		r.counts = append(r.counts, 0)
		r.tr.AddHost()
		r.dec.AddHost()
		r.cause = "join"
		d, ok := r.proto.(protocol.Dynamic)
		if !ok {
			panic(fmt.Sprintf("sim: replay: protocol %s does not support dynamic joins", r.sched.Protocol))
		}
		d.OnJoin(h)
		if r.ck != nil {
			r.ck.AfterJoin(h)
		}

	default:
		panic(fmt.Sprintf("sim: replay: unknown schedule kind %q", ev.Kind))
	}
}

// result assembles the single-protocol Result of a replay run.
func (r *replayRun) result() *Result {
	initial, basic, forced := r.store.CountByKind(-1)
	pr := ProtocolResult{
		Name:           ProtocolName(r.sched.Protocol),
		Ntot:           int64(basic + forced),
		Initial:        int64(initial),
		Basic:          int64(basic),
		Forced:         int64(forced),
		PiggybackBytes: r.proto.PiggybackBytes(),
		Storage:        r.store.Counters(),
		Causes:         r.causes,
		Store:          r.store,
		Trace:          r.tr,
		MLog:           r.lg,
		Instance:       r.proto,
	}
	if r.lg != nil {
		pr.Log = r.lg.Counters()
	}
	return &Result{
		Config:      r.cfg,
		FinalHosts:  r.sched.FinalHosts(),
		EventsFired: r.sim.Fired(),
		Protocols:   []ProtocolResult{pr},
		Decisions:   r.dec,
	}
}

// finishChecks mirrors the generative engine's end-of-run reconciliation
// for the single replayed protocol.
func (r *replayRun) finishChecks(res *Result) error {
	var all check.Violations
	all = append(all, r.ck.Finish(r.counts)...)
	pr := &res.Protocols[0]
	if pr.Initial != int64(res.FinalHosts) {
		all = append(all, &check.Violation{
			Protocol: r.sched.Protocol, Time: r.sim.Now(), Rule: "reconcile",
			Detail: fmt.Sprintf("%d initial checkpoints for %d hosts", pr.Initial, res.FinalHosts),
		})
	}
	if r.lg != nil {
		all = append(all, check.LogReconciliation(r.sched.Protocol, r.lg, r.tr, res.FinalHosts)...)
	}
	if r.indexBased {
		all = append(all, check.RecoveryLines(r.sched.Protocol, r.store, r.tr, res.FinalHosts, 0)...)
	}
	if len(all) > 0 {
		return all
	}
	return nil
}
