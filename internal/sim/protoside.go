package sim

import (
	"fmt"
	"strconv"

	"mobickpt/internal/check"
	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/protocol"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// protoSide is the protocol side of a run: the slots, and everything one
// application event does to them — hook, checker, trace, message log,
// cause tally, metrics, timeline. The protocols only observe message
// order, cell switches and disconnections (§5.1), so where that pattern
// comes from is not their business: the generative engine (world.go)
// drives these methods from its network hooks and workload, the replay
// (diffreplay.go) from a recorded schedule. What differs between the two
// arrives as values — the clock, the station a checkpoint lands on, the
// flow id, the hand-off's log step — and nothing here asks which world
// is calling.
type protoSide struct {
	// slots holds the per-protocol state, in Config.Protocols order.
	slots []slot

	// now is the caller's clock: the virtual time on host h's timeline.
	// Only a lane-sharded engine has more than one; the checker and the
	// end-of-run reconciliation, which such an engine refuses, read
	// host 0's.
	now func(h mobile.HostID) des.Time

	// handoffLog moves host h's message log in slot s to station to,
	// right after the slot's OnCellSwitch. Each world owns the pruning
	// that goes with it: the engine prunes on its GC ticks, the replay at
	// the frontier just before shipping, as the live cluster does.
	handoffLog func(s *slot, h mobile.HostID, to mobile.MSSID)

	// laneCount is 1 unless a parallel engine drives the side; the
	// lane-sharded state below is indexed by owner % laneCount, mirroring
	// pdes.Core's owner-to-lane map.
	laneCount int

	// causeLane names, per lane, the activity driving the protocol
	// callbacks currently running there ("switch", "disconnect", ...); the
	// checkpointer reads the acting host's lane slot to attribute each
	// checkpoint to its trigger (E19). Global-phase activities (markers,
	// ticks, joins, init) run world-stopped and stamp every slot.
	// causesLane accumulates the per-lane, per-protocol breakdown, merged
	// into ProtocolResult.Causes after the run. With one lane both reduce
	// to a single cause string and map.
	//
	//lane:shard
	causeLane []string
	// causesLane is indexed [lane][proto][cause].
	//
	//lane:shard
	causesLane [][]map[string]int64

	// Observability (nil unless Config.Metrics / Config.Timeline).
	reg *obs.Registry
	tl  *obs.Timeline
	// discAt (timeline only) holds the disconnect start per host, -1
	// when connected. Mobility transitions run as fenced write events —
	// no lane handler window overlaps them — so the slice may grow.
	//
	//lane:stopped mobility transitions are fenced write events
	discAt []des.Time

	// flowLane/flowHostLane (timeline only) stash the message currently
	// being delivered on each lane so the checkpointer can link the forced
	// checkpoints that delivery induces into the same flow. Each slot is
	// touched only by its lane's goroutine (or the world-stopped
	// coordinator).
	//
	//lane:shard
	flowLane []uint64
	//lane:shard
	flowHostLane []mobile.HostID
}

// slot is one selected protocol's share of the run: all protocols ride
// the same trace, and everything that differs between them lives here.
// Per-host tables (counts, forcedHost) are written by the host's lane;
// the GC and join tallies only by world-stopped global events.
type slot struct {
	name   ProtocolName
	proto  protocol.Protocol
	store  *storage.Store
	trace  *trace.Trace   // nil unless Config.RecordTrace
	mlog   *mlog.Log      // MSS message log; nil unless Config.MessageLog
	check  *check.Runtime // nil unless Config.Checks
	counts []int          // per host, checkpoints taken (incl. initial)

	peakLive    int   // max live records seen at GC ticks
	gcReclaimed int   // total records pruned
	gcFrontier  int   // highest stable index any GC pruned at
	joinCtrl    int64 // control messages spent on joins

	// Cached instruments (nil unless Config.Metrics): the
	// sim_checkpoints_total counters by cause and the per-host
	// sim_forced_checkpoints_total counters.
	ckptByCause map[string]*obs.Counter
	forcedHost  []*obs.Counter
}

// indexBased reports whether a protocol's recovery lines are index cuts
// — what makes stable-index garbage collection and the same-index
// recovery-line check sound for it. The registry is the one place that
// says which protocols those are.
func indexBased(p ProtocolName) bool {
	ent, _ := protocol.Lookup(string(p))
	return ent.IndexBased
}

// newProtoSide sizes the protocol side for protos slots driven from
// lanes lanes. The caller fills the slots (initSlot) and, if it logs,
// sets handoffLog.
func newProtoSide(protos, lanes int, reg *obs.Registry, tl *obs.Timeline, now func(mobile.HostID) des.Time) protoSide {
	p := protoSide{
		slots:      make([]slot, protos),
		now:        now,
		laneCount:  lanes,
		causeLane:  make([]string, lanes),
		causesLane: make([][]map[string]int64, lanes),
		reg:        reg,
		tl:         tl,
	}
	for l := range p.causesLane {
		p.causesLane[l] = make([]map[string]int64, protos)
		for i := range p.causesLane[l] {
			p.causesLane[l][i] = make(map[string]int64)
		}
	}
	if tl != nil {
		p.flowLane = make([]uint64, lanes)
		p.flowHostLane = make([]mobile.HostID, lanes)
		for i := range p.flowHostLane {
			p.flowHostLane[i] = -1
		}
	}
	return p
}

// initSlot fills protocol slot i for n hosts: its store, the optional
// trace, message log and checker, the metric cache, and the protocol
// instance, which build constructs around the slot's checkpointer and
// store. mssOf is the station a checkpoint of h lands on — the same
// closure the caller hands the protocol.
func (p *protoSide) initSlot(i int, cfg Config, name ProtocolName, n int, mssOf func(mobile.HostID) mobile.MSSID,
	build func(protocol.Checkpointer, *storage.Store) (protocol.Protocol, error)) error {
	s := &p.slots[i]
	s.name = name
	s.store = storage.NewStore(cfg.Cost)
	s.counts = make([]int, n)
	if p.reg != nil {
		s.ckptByCause = make(map[string]*obs.Counter)
	}
	if cfg.RecordTrace {
		s.trace = trace.New(n)
	}
	var err error
	if s.mlog, err = cfg.newMessageLog(); err != nil {
		return err
	}
	if s.mlog != nil && p.tl != nil {
		s.mlog.OnFlush = func(h mobile.HostID, entries int) {
			p.tl.Instant(float64(p.now(h)), int(h), "log-flush",
				"proto", string(name), "entries", strconv.Itoa(entries))
		}
	}
	if s.proto, err = build(p.checkpointer(i, mssOf), s.store); err != nil {
		return err
	}
	if cfg.Checks {
		s.check = check.NewRuntime(string(name), s.proto, s.store, func() des.Time { return p.now(0) })
	}
	return nil
}

// checkpointer builds the Checkpointer for protocol slot i: the store
// record, the per-host count, the cause tally (E19) and, when on, the
// two checkpoint counter families and the timeline instant.
func (p *protoSide) checkpointer(i int, mssOf func(mobile.HostID) mobile.MSSID) protocol.Checkpointer {
	s := &p.slots[i]
	name := string(s.name)
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		lane := p.laneOf(h)
		now := p.now(h)
		rec := s.store.Take(h, mssOf(h), index, kind, now)
		s.counts[h]++
		// The E19 classification is replaycmp's — one definition shared
		// with the live cluster and the replay comparator.
		key := replaycmp.CauseKey(kind, p.causeLane[lane])
		p.causesLane[lane][i][key]++
		if p.reg != nil {
			c := s.ckptByCause[key]
			if c == nil {
				c = p.reg.Counter("sim_checkpoints_total", "proto", name, "cause", key)
				s.ckptByCause[key] = c
			}
			c.Inc()
			if kind == storage.Forced {
				for int(h) >= len(s.forcedHost) {
					s.forcedHost = append(s.forcedHost, nil)
				}
				fc := s.forcedHost[h]
				if fc == nil {
					fc = p.reg.Counter("sim_forced_checkpoints_total",
						"proto", name, "host", strconv.Itoa(int(h)))
					s.forcedHost[h] = fc
				}
				fc.Inc()
			}
		}
		if p.tl != nil {
			p.tl.Instant(float64(now), int(h), "checkpoint",
				"proto", name, "kind", kind.String(), "cause", key,
				"index", strconv.Itoa(index))
			if kind == storage.Forced && p.flowHostLane[lane] == h {
				// This forced checkpoint was induced by the message this
				// lane is currently delivering: chain it into that flow.
				p.tl.FlowStep(float64(now), int(h), "msg-flow", p.flowLane[lane])
			}
		}
		return rec
	}
}

// laneOf maps a host to its lane shard (pdes.Core uses the same
// owner % P map, so shard writes stay on the executing lane).
func (p *protoSide) laneOf(h mobile.HostID) int { return int(h) % p.laneCount }

// setCauseFor marks the activity about to drive protocol callbacks for
// host h and returns the slot's previous value; restoreCauseFor puts it
// back. Lane handlers only ever touch their own host's slot.
//
//lane:handler
func (p *protoSide) setCauseFor(h mobile.HostID, c string) (prev string) {
	s := p.laneOf(h)
	prev = p.causeLane[s]
	p.causeLane[s] = c
	return prev
}

//lane:handler
func (p *protoSide) restoreCauseFor(h mobile.HostID, prev string) {
	p.causeLane[p.laneOf(h)] = prev
}

// setCauseAll stamps every lane's cause slot — legal only while
// single-threaded (init and the world-stopped global phase, where a
// marker or tick may checkpoint any host). restoreCauseAll undoes it; no
// lane handler runs in between, so clobbering lane-local values is moot.
//
//lane:stopped
func (p *protoSide) setCauseAll(c string) (prev string) {
	prev = p.causeLane[0]
	for i := range p.causeLane {
		p.causeLane[i] = c
	}
	return prev
}

//lane:stopped
func (p *protoSide) restoreCauseAll(prev string) {
	for i := range p.causeLane {
		p.causeLane[i] = prev
	}
}

// start names the n initial hosts' timeline tracks and takes every
// protocol's initial checkpoints (cause "init").
func (p *protoSide) start(n int) {
	if p.tl != nil {
		for h := 0; h < n; h++ {
			p.tl.SetTrack(h, fmt.Sprintf("MH %d", h))
		}
	}
	defer p.restoreCauseAll(p.setCauseAll("init"))
	for i := range p.slots {
		s := &p.slots[i]
		s.proto.Init()
		if s.check != nil {
			s.check.AfterInit(n)
		}
	}
}

// onSend runs every protocol's OnSend for a message from → to and leaves
// the piggybacks in pb, parallel to the slots.
//
//lane:handler
func (p *protoSide) onSend(from, to mobile.HostID, pb []any) {
	prev := p.setCauseFor(from, "send") // restored below; this is the hot path, no defer
	for i := range p.slots {
		s := &p.slots[i]
		pb[i] = s.proto.OnSend(from, to)
		if s.check != nil {
			s.check.AfterSend(from, pb[i])
		}
	}
	p.restoreCauseFor(from, prev)
}

// sent records the send of message id on the timeline — flow rides the
// message to link send -> deliver -> forced checkpoints — and in every
// trace, at the sender's post-OnSend position.
//
//lane:handler
func (p *protoSide) sent(id, flow uint64, from, to mobile.HostID) {
	if p.tl != nil {
		now := float64(p.now(from))
		p.tl.Instant(now, int(from), "send",
			"to", strconv.Itoa(int(to)), "msg", strconv.FormatUint(flow, 10))
		p.tl.FlowBegin(now, int(from), "msg-flow", flow,
			"to", strconv.Itoa(int(to)))
	}
	for i := range p.slots {
		if s := &p.slots[i]; s.trace != nil {
			s.trace.RecordSend(id, from, to, s.counts[from], p.now(from))
		}
	}
}

// onDeliver dispatches message id, delivered to h at station at, to every
// protocol and records the receiver-side trace positions (after any
// forced checkpoint).
//
//lane:handler
func (p *protoSide) onDeliver(now des.Time, h, from mobile.HostID, id, flow uint64, pb []any, at mobile.MSSID) {
	prev := p.setCauseFor(h, "deliver") // restored below; this is the hot path, no defer
	lane := p.laneOf(h)
	if p.tl != nil {
		p.tl.Instant(float64(now), int(h), "deliver",
			"from", strconv.Itoa(int(from)), "msg", strconv.FormatUint(flow, 10))
		p.tl.FlowStep(float64(now), int(h), "msg-flow", flow)
		// Stash the in-delivery flow so the checkpointer can chain the
		// forced checkpoints this delivery induces.
		p.flowLane[lane] = flow
		p.flowHostLane[lane] = h
	}
	for i := range p.slots {
		s := &p.slots[i]
		s.proto.OnDeliver(h, from, pb[i])
		if s.check != nil {
			s.check.AfterDeliver(h, from, pb[i])
		}
		if s.trace != nil {
			s.trace.RecordDeliver(id, s.counts[h], now)
		}
		if s.mlog != nil {
			// The entry carries the post-forced-checkpoint receiver
			// position, the same position the trace records; pessimistic
			// mode makes it stable before the application proceeds.
			s.mlog.Append(h, from, id, s.counts[h], now, at)
		}
	}
	if p.tl != nil {
		p.flowHostLane[lane] = -1
		p.tl.FlowEnd(float64(now), int(h), "msg-flow", flow)
	}
	p.restoreCauseFor(h, prev)
}

// onCellSwitch mirrors host h's move from station from to station to.
func (p *protoSide) onCellSwitch(now des.Time, h mobile.HostID, from, to mobile.MSSID) {
	defer p.restoreCauseFor(h, p.setCauseFor(h, "switch"))
	for i := range p.slots {
		s := &p.slots[i]
		s.proto.OnCellSwitch(h, to)
		if s.check != nil {
			s.check.AfterCellSwitch(h)
		}
		if s.mlog != nil {
			// The message log follows its host like the checkpoints do
			// (§2.2's transfer operation).
			p.handoffLog(s, h, to)
		}
	}
	if p.tl != nil {
		p.tl.Instant(float64(now), int(h), "handoff",
			"from", strconv.Itoa(int(from)), "to", strconv.Itoa(int(to)))
	}
	p.recordMobility(h, trace.Handoff, from, to, now)
}

// onDisconnect mirrors host h's disconnection from station from.
func (p *protoSide) onDisconnect(now des.Time, h mobile.HostID, from mobile.MSSID) {
	defer p.restoreCauseFor(h, p.setCauseFor(h, "disconnect"))
	for i := range p.slots {
		s := &p.slots[i]
		s.proto.OnDisconnect(h)
		if s.check != nil {
			s.check.AfterDisconnect(h)
		}
		if s.mlog != nil {
			// The disconnection checkpoint makes the host's state
			// durable; the log suffix writes through with it.
			s.mlog.Flush(h)
		}
	}
	if p.tl != nil {
		for int(h) >= len(p.discAt) {
			p.discAt = append(p.discAt, -1)
		}
		p.discAt[h] = now
		p.tl.Instant(float64(now), int(h), "disconnect",
			"from", strconv.Itoa(int(from)))
	}
	p.recordMobility(h, trace.Disconnect, from, mobile.NoMSS, now)
}

// onReconnect mirrors host h's reconnection at station at.
func (p *protoSide) onReconnect(now des.Time, h mobile.HostID, at mobile.MSSID) {
	defer p.restoreCauseFor(h, p.setCauseFor(h, "reconnect"))
	for i := range p.slots {
		s := &p.slots[i]
		s.proto.OnReconnect(h, at)
		if s.check != nil {
			s.check.AfterReconnect(h)
		}
	}
	if p.tl != nil {
		if int(h) < len(p.discAt) && p.discAt[h] >= 0 {
			p.tl.Span(float64(p.discAt[h]), float64(now-p.discAt[h]), int(h), "disconnected")
			p.discAt[h] = -1
		}
		p.tl.Instant(float64(now), int(h), "reconnect",
			"at", strconv.Itoa(int(at)))
	}
	p.recordMobility(h, trace.Reconnect, mobile.NoMSS, at, now)
}

// recordMobility mirrors one mobility event into every recorded trace
// (the events are protocol-independent; each trace stays standalone for
// offline analysis).
func (p *protoSide) recordMobility(h mobile.HostID, kind trace.MobilityKind, from, to mobile.MSSID, now des.Time) {
	for i := range p.slots {
		if tr := p.slots[i].trace; tr != nil {
			tr.RecordMobility(h, kind, from, to, now)
		}
	}
}

// onJoin admits host id, joining at station at, into every protocol
// (via Dynamic). It runs world-stopped.
func (p *protoSide) onJoin(now des.Time, id mobile.HostID, at mobile.MSSID) {
	defer p.restoreCauseAll(p.setCauseAll("join"))
	if p.tl != nil {
		p.tl.SetTrack(int(id), fmt.Sprintf("MH %d (joined)", id))
		p.tl.Instant(float64(now), int(id), "join",
			"at", strconv.Itoa(int(at)))
	}
	for i := range p.slots {
		s := &p.slots[i]
		d, ok := s.proto.(protocol.Dynamic)
		if !ok {
			panic(fmt.Sprintf("sim: protocol %s does not support dynamic joins", s.name))
		}
		s.counts = append(s.counts, 0)
		s.joinCtrl += d.OnJoin(id)
		if s.check != nil {
			s.check.AfterJoin(id)
		}
		if s.trace != nil {
			s.trace.AddHost()
		}
	}
}

// protocolResult assembles slot i's outcome from its store and tallies.
// Energy, which needs a network model's counters, is the caller's.
func (p *protoSide) protocolResult(i int) ProtocolResult {
	s := &p.slots[i]
	initial, basic, forced := s.store.CountByKind(-1)
	pr := ProtocolResult{
		Name:               s.name,
		Ntot:               int64(basic + forced),
		Initial:            int64(initial),
		Basic:              int64(basic),
		Forced:             int64(forced),
		PiggybackBytes:     s.proto.PiggybackBytes(),
		JoinCtrlMessages:   s.joinCtrl,
		PeakLiveRecords:    s.peakLive,
		GCReclaimedRecords: s.gcReclaimed,
		Storage:            s.store.Counters(),
		Causes:             make(map[string]int64),
		Store:              s.store,
		Trace:              s.trace,
		MLog:               s.mlog,
		Instance:           s.proto,
	}
	if s.mlog != nil {
		pr.Log = s.mlog.Counters()
	}
	if init, ok := s.proto.(protocol.Initiator); ok {
		pr.CtrlMessages = init.ControlMessages()
	}
	for l := range p.causesLane {
		for k, v := range p.causesLane[l][i] {
			pr.Causes[k] += v
		}
	}
	return pr
}

// instrumentSlots registers the per-protocol sim_* families on p.reg.
// All are sampled — read from the slots' own tallies at snapshot time —
// so registering costs the hot paths nothing; the two counter families
// the checkpointer increments directly are cached per slot.
func (p *protoSide) instrumentSlots() {
	for _, h := range [][2]string{
		{"sim_checkpoints_total", "Checkpoints taken, by protocol and causal event (the paper's N_tot split)."},
		{"sim_forced_checkpoints_total", "Forced checkpoints, by protocol and host."},
		{"sim_piggyback_bytes_total", "Protocol control bytes piggybacked on application messages."},
		{"sim_gc_reclaimed_total", "Checkpoint records reclaimed by garbage collection."},
		{"sim_gc_peak_live_records", "Peak simultaneously-live checkpoint records."},
		{"sim_join_ctrl_messages_total", "Control messages spent integrating joining hosts."},
		{"sim_ctrl_messages_total", "Protocol control messages (initiator-based protocols)."},
		{"sim_tp_vector_copies_total", "TP sends that took a new O(1) view of the sender's vectors (they had changed since its previous send); no vector is copied."},
		{"sim_tp_snapshot_reuses_total", "TP sends that shared the view the sender's previous send took."},
	} {
		p.reg.Help(h[0], h[1])
	}
	for i := range p.slots {
		s := &p.slots[i]
		name := string(s.name)
		p.reg.CounterFunc("sim_piggyback_bytes_total",
			func() int64 { return s.proto.PiggybackBytes() }, "proto", name)
		p.reg.CounterFunc("sim_gc_reclaimed_total",
			func() int64 { return int64(s.gcReclaimed) }, "proto", name)
		p.reg.GaugeFunc("sim_gc_peak_live_records",
			func() int64 { return int64(s.peakLive) }, "proto", name)
		p.reg.CounterFunc("sim_join_ctrl_messages_total",
			func() int64 { return s.joinCtrl }, "proto", name)
		if init, ok := s.proto.(protocol.Initiator); ok {
			p.reg.CounterFunc("sim_ctrl_messages_total",
				func() int64 { return init.ControlMessages() }, "proto", name)
		}
		if tp, ok := s.proto.(*protocol.TP); ok {
			// How often a sender's vectors change between its sends
			// (E26): sends that took a new view versus sends that
			// shared the previous one.
			p.reg.CounterFunc("sim_tp_vector_copies_total",
				func() int64 { c, _ := tp.SnapshotStats(); return c }, "proto", name)
			p.reg.CounterFunc("sim_tp_snapshot_reuses_total",
				func() int64 { _, r := tp.SnapshotStats(); return r }, "proto", name)
		}
		if s.mlog != nil {
			s.mlog.Instrument(p.reg, nil, "proto", name)
		}
	}
}

// finishChecks runs the end-of-run reconciliation of the invariant
// checker — the slots' tallies vs stable-storage chains, Ntot arithmetic,
// one initial checkpoint per (possibly joined) host — plus the post-run
// recovery-line sweep over recorded traces. It returns a
// check.Violations error when any invariant broke.
func (p *protoSide) finishChecks(res *Result) error {
	var all check.Violations
	for i := range p.slots {
		s := &p.slots[i]
		all = append(all, s.check.Finish(s.counts)...)
		pr := &res.Protocols[i]
		if pr.Ntot != pr.Basic+pr.Forced {
			all = append(all, &check.Violation{
				Protocol: string(pr.Name), Time: p.now(0), Rule: "reconcile",
				Detail: fmt.Sprintf("Ntot %d != basic %d + forced %d", pr.Ntot, pr.Basic, pr.Forced),
			})
		}
		if pr.Initial != int64(res.FinalHosts) {
			all = append(all, &check.Violation{
				Protocol: string(pr.Name), Time: p.now(0), Rule: "reconcile",
				Detail: fmt.Sprintf("%d initial checkpoints for %d hosts", pr.Initial, res.FinalHosts),
			})
		}
		if s.trace == nil {
			continue
		}
		if s.mlog != nil {
			all = append(all, check.LogReconciliation(string(pr.Name), s.mlog, s.trace, res.FinalHosts)...)
		}
		if indexBased(s.name) {
			// Lines below the highest frontier any GC pass pruned at lost
			// members by design and are exempt; everything above it must
			// still be consistent (with dynamic joins the end-of-run stable
			// index can sit below that frontier, so the frontier is tracked
			// per pass, not recomputed here).
			all = append(all, check.RecoveryLines(string(pr.Name), s.store, s.trace, res.FinalHosts, s.gcFrontier)...)
		}
	}
	if len(all) > 0 {
		return all
	}
	return nil
}
