// Package sim is the experiment engine: it wires the DES clock, the
// mobile network, the workload drivers, the checkpoint stores and the
// checkpointing protocols into one run, and reproduces the paper's
// methodology.
//
// A key property (shared with the paper's study): checkpoint insertion is
// instantaneous and does not perturb the application, so the message and
// mobility trace of a run depends only on the seed — never on the
// protocol. The engine exploits that by evaluating *all requested
// protocols simultaneously over the same trace*: each application message
// carries one piggyback slot per protocol, and each protocol keeps its
// own checkpoint store. This gives an exact like-for-like comparison in a
// single pass (the ablation bench verifies it matches per-protocol
// re-simulation).
package sim

import (
	"fmt"
	"strconv"

	"mobickpt/internal/check"
	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// Run executes one simulation. With Config.Checks set, a run that
// violates a protocol invariant returns the (partial) result together
// with a check.Violations error describing every broken rule.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Schedule != nil {
		return runSchedule(cfg)
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	res := e.run()
	if cfg.Checks {
		if err := e.finishChecks(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// engine is the wired-up run state.
type engine struct {
	cfg    Config
	sim    *des.Simulator
	net    *mobile.Network
	driver *workload.Driver

	// sched is the scheduling surface the world model runs on: des.Solo
	// over sim for sequential runs, a coreSched over core for parallel
	// ones. laneCount is 1 sequentially; lane-sharded engine state
	// (causeLane, causesLane, plFree) is indexed by owner % laneCount,
	// mirroring pdes.Core's owner-to-lane map.
	sched     des.Sched
	core      *pdes.Core
	laneCount int
	// inGlobalPhase is true whenever the engine is single-threaded: before
	// core.Run, inside world-stopped global-timeline events, and during
	// the post-run drain. Toggled only while no lane handler executes (the
	// coordinator's frontier handshake orders the accesses), it routes
	// now() to the global clock instead of a parked lane's local time.
	//
	//lane:stopped the coordinator flips it between handler windows
	inGlobalPhase bool

	// joinRNG places dynamically joining hosts on a dedicated stream
	// (like the loss model's): placement must be seed-dependent — the
	// old NumHosts()%NumMSS rule parked every k-th joiner on the same
	// station regardless of seed — yet must not perturb the workload's
	// randomness. Created lazily on the first join.
	//
	//lane:stopped joins are global-timeline events, never lane handlers
	joinRNG *rng.Source

	// slots holds the per-protocol state, parallel to cfg.Protocols.
	slots []slot
	// plFree is the per-lane free list of payload carriers: send pops
	// lane(from), deliver pushes lane(to), which keeps the send→deliver
	// path allocation-free in steady state.
	//
	//lane:shard
	plFree [][]*payload

	// pendingLatency accumulates checkpoint time to charge against each
	// host's next operation (only with a single protocol selected).
	pendingLatency []des.Time

	// causeLane names, per lane, the engine activity driving the protocol
	// callbacks currently running there ("switch", "disconnect", ...); the
	// checkpointer reads the acting host's lane slot to attribute each
	// checkpoint to its trigger (E19). Global-phase activities (markers,
	// ticks, joins, init) run world-stopped and stamp every slot.
	// causesLane accumulates the per-lane, per-protocol breakdown, merged
	// into ProtocolResult.Causes after the run. With one lane both reduce
	// to the old single cause string and map.
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

	// Flow-id machinery (timeline only). sendOrd[h] counts host h's sends;
	// the flow id uint64(h)<<32|ordinal is a pure function of the trace —
	// unlike mobile.Message.ID, whose atomic allocation order depends on
	// lane scheduling — so flow chains are byte-identical across engines.
	// flowLane/flowHostLane stash the message currently being delivered on
	// each lane so the checkpointer can link the forced checkpoints that
	// delivery induces into the same flow. Each slot is touched only by
	// its lane's goroutine (or the world-stopped coordinator); slices grow
	// only world-stopped (joins).
	sendOrd []uint64
	//lane:shard
	flowLane []uint64
	//lane:shard
	flowHostLane []mobile.HostID

	// Engine-internals probes (zero/nil unless Config.Probes). All are
	// single-writer cells read after the run (DESIGN.md: probes and
	// overhead).
	coreProbe *pdes.CoreProbe
	// msgProbe holds the per-lane message pool shards (mobile).
	//
	//lane:shard
	msgProbe []probe.PoolProbe
	simPool  probe.PoolProbe  // global simulator's event pool
	simQueue probe.QueueProbe // global simulator's pending-event set
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

// markDisconnected records the start of host h's disconnection span for
// the timeline, growing the flat per-host table past dynamic joins.
//
//lane:stopped
func (e *engine) markDisconnected(h mobile.HostID, at des.Time) {
	for int(h) >= len(e.discAt) {
		e.discAt = append(e.discAt, -1)
	}
	e.discAt[h] = at
}

// takeDisconnected returns and clears host h's disconnection start.
//
//lane:stopped
func (e *engine) takeDisconnected(h mobile.HostID) (des.Time, bool) {
	if int(h) >= len(e.discAt) || e.discAt[h] < 0 {
		return 0, false
	}
	at := e.discAt[h]
	e.discAt[h] = -1
	return at, true
}

// laneOf maps a host to its engine-side lane shard (pdes.Core uses the
// same owner % P map, so shard writes stay on the executing lane).
func (e *engine) laneOf(h mobile.HostID) int { return int(h) % e.laneCount }

// now returns the virtual time on host h's timeline: the global clock
// while single-threaded (sequential runs, init, world-stopped global
// events), h's lane-local time while its lane handler executes.
func (e *engine) now(h mobile.HostID) des.Time {
	if e.core == nil || e.inGlobalPhase {
		return e.sim.Now()
	}
	return e.sched.Now(int(h))
}

// setCauseFor marks the activity about to drive protocol callbacks for
// host h and returns the slot's previous value; restoreCauseFor puts it
// back. Lane handlers only ever touch their own host's slot.
//
//lane:handler
func (e *engine) setCauseFor(h mobile.HostID, c string) (prev string) {
	s := e.laneOf(h)
	prev = e.causeLane[s]
	e.causeLane[s] = c
	return prev
}

//lane:handler
func (e *engine) restoreCauseFor(h mobile.HostID, prev string) {
	e.causeLane[e.laneOf(h)] = prev
}

// setCauseAll stamps every lane's cause slot — legal only while
// single-threaded (init and the world-stopped global phase, where a
// marker or tick may checkpoint any host). restoreCauseAll undoes it; no
// lane handler runs in between, so clobbering lane-local values is moot.
//
//lane:stopped
func (e *engine) setCauseAll(c string) (prev string) {
	prev = e.causeLane[0]
	for i := range e.causeLane {
		e.causeLane[i] = c
	}
	return prev
}

//lane:stopped
func (e *engine) restoreCauseAll(prev string) {
	for i := range e.causeLane {
		e.causeLane[i] = prev
	}
}

// payload is what one application message carries: the per-protocol
// piggybacks, parallel to cfg.Protocols. Payloads are pooled: send draws
// from engine.plFree and onDeliver returns the carrier once every
// consumer has seen it; the piggybacks themselves are immutable values
// the protocols own.
type payload struct {
	piggyback []any
}

// newEngine wires a validated configuration into a runnable engine:
// scheduling surface first, then the world on top of it, then — only
// with Config.Metrics — the instruments that read both.
func newEngine(cfg Config) (*engine, error) {
	e := &engine{cfg: cfg, sim: des.NewWith(cfg.Queue), reg: cfg.Metrics, tl: cfg.Timeline}
	if err := e.bindEngine(); err != nil {
		return nil, err
	}
	if err := e.wireWorld(); err != nil {
		return nil, err
	}
	if e.reg != nil {
		e.instrument()
	}
	return e, nil
}

// checkpointer builds the Checkpointer for protocol slot i.
func (e *engine) checkpointer(i int) protocol.Checkpointer {
	s := &e.slots[i]
	name := string(s.name)
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		lane := e.laneOf(h)
		now := e.now(h)
		rec := s.store.Take(h, e.net.Host(h).LastMSS(), index, kind, now)
		s.counts[h]++
		e.pendingLatency[h] += e.cfg.CheckpointLatency
		// The E19 classification is replaycmp's — one definition shared
		// with the live cluster and the replay comparator.
		key := replaycmp.CauseKey(kind, e.causeLane[lane])
		e.causesLane[lane][i][key]++
		if e.reg != nil {
			c := s.ckptByCause[key]
			if c == nil {
				c = e.reg.Counter("sim_checkpoints_total", "proto", name, "cause", key)
				s.ckptByCause[key] = c
			}
			c.Inc()
			if kind == storage.Forced {
				for int(h) >= len(s.forcedHost) {
					s.forcedHost = append(s.forcedHost, nil)
				}
				fc := s.forcedHost[h]
				if fc == nil {
					fc = e.reg.Counter("sim_forced_checkpoints_total",
						"proto", name, "host", strconv.Itoa(int(h)))
					s.forcedHost[h] = fc
				}
				fc.Inc()
			}
		}
		if e.tl != nil {
			e.tl.Instant(float64(now), int(h), "checkpoint",
				"proto", name, "kind", kind.String(), "cause", key,
				"index", strconv.Itoa(index))
			if kind == storage.Forced && e.flowHostLane[lane] == h {
				// This forced checkpoint was induced by the message this
				// lane is currently delivering: chain it into that flow.
				e.tl.FlowStep(float64(now), int(h), "msg-flow", e.flowLane[lane])
			}
		}
		return rec
	}
}

// send runs every protocol's OnSend, assembles the piggyback slots and
// hands the message to the network.
//
//lane:handler
func (e *engine) send(from, to mobile.HostID) {
	prev := e.setCauseFor(from, "send") // restored below; this is the hot path, no defer
	lane := e.laneOf(from)
	var pl *payload
	if free := e.plFree[lane]; len(free) > 0 {
		k := len(free)
		pl = free[k-1]
		free[k-1] = nil
		e.plFree[lane] = free[:k-1]
	} else {
		pl = &payload{piggyback: make([]any, len(e.slots))}
	}
	for i := range e.slots {
		s := &e.slots[i]
		pl.piggyback[i] = s.proto.OnSend(from, to)
		if s.check != nil {
			s.check.AfterSend(from, pl.piggyback[i])
		}
	}
	m, err := e.net.Send(from, to, pl)
	if err != nil {
		panic("sim: " + err.Error()) // the driver only sends from connected hosts
	}
	if e.tl != nil {
		// The flow id is (sender, per-sender ordinal) — deterministic under
		// any engine, unlike m.ID's allocation order — and rides the
		// message to link send -> deliver -> forced checkpoints.
		now := float64(e.now(from))
		flow := uint64(from)<<32 | e.sendOrd[from]
		e.sendOrd[from]++
		m.Flow = flow
		e.tl.Instant(now, int(from), "send",
			"to", strconv.Itoa(int(to)), "msg", strconv.FormatUint(flow, 10))
		e.tl.FlowBegin(now, int(from), "msg-flow", flow,
			"to", strconv.Itoa(int(to)))
	}
	for i := range e.slots {
		if s := &e.slots[i]; s.trace != nil {
			s.trace.RecordSend(m.ID, from, to, s.counts[from], e.sim.Now())
		}
	}
	e.restoreCauseFor(from, prev)
}

// onDeliver dispatches a delivered message to every protocol and records
// the receiver-side trace positions (after any forced checkpoint).
//
//lane:handler
func (e *engine) onDeliver(now des.Time, h *mobile.Host, m *mobile.Message) {
	prev := e.setCauseFor(h.ID, "deliver") // restored below; this is the hot path, no defer
	pl := m.Payload.(*payload)
	flow := m.Flow
	if e.tl != nil {
		e.tl.Instant(float64(now), int(h.ID), "deliver",
			"from", strconv.Itoa(int(m.From)), "msg", strconv.FormatUint(flow, 10))
		e.tl.FlowStep(float64(now), int(h.ID), "msg-flow", flow)
		// Stash the in-delivery flow so the checkpointer can chain the
		// forced checkpoints this delivery induces.
		lane := e.laneOf(h.ID)
		e.flowLane[lane] = flow
		e.flowHostLane[lane] = h.ID
	}
	for i := range e.slots {
		s := &e.slots[i]
		s.proto.OnDeliver(h.ID, m.From, pl.piggyback[i])
		if s.check != nil {
			s.check.AfterDeliver(h.ID, m.From, pl.piggyback[i])
		}
		if s.trace != nil {
			s.trace.RecordDeliver(m.ID, s.counts[h.ID], now)
		}
		if s.mlog != nil {
			// The entry carries the post-forced-checkpoint receiver
			// position, the same position the trace records; pessimistic
			// mode makes it stable before the application proceeds.
			s.mlog.Append(h.ID, m.From, m.ID, s.counts[h.ID], now, h.LastMSS())
		}
	}
	// Every consumer (protocols, checker, traces, logs) has seen the
	// message: return the carrier and the message itself to their pools
	// for the next send.
	clear(pl.piggyback)
	m.Payload = nil
	lane := e.laneOf(h.ID)
	e.plFree[lane] = append(e.plFree[lane], pl)
	e.net.Recycle(m)
	if e.tl != nil {
		e.flowHostLane[lane] = -1
		e.tl.FlowEnd(float64(now), int(h.ID), "msg-flow", flow)
	}
	e.restoreCauseFor(h.ID, prev)
}

// recordMobility mirrors one mobility event into every recorded trace
// (the events are protocol-independent; each trace stays standalone for
// offline analysis).
func (e *engine) recordMobility(h mobile.HostID, kind trace.MobilityKind, from, to mobile.MSSID, now des.Time) {
	for i := range e.slots {
		if tr := e.slots[i].trace; tr != nil {
			tr.RecordMobility(h, kind, from, to, now)
		}
	}
}

// scheduleSnapshots drives the coordinated baselines: every period the
// initiator picks its targets and markers travel to currently connected
// hosts (a disconnected host is represented by its disconnection
// checkpoint, §2.2, so it skips the round).
func (e *engine) scheduleSnapshots(i int, init protocol.Initiator) {
	period := e.cfg.SnapshotPeriod
	markerLatency := e.cfg.Mobile.WiredLatency + e.cfg.Mobile.WirelessLatency
	tick := func(sim *des.Simulator, now des.Time) {
		defer e.restoreCauseAll(e.setCauseAll("marker"))
		for _, h := range init.BeginSnapshot() {
			// One location query per marker: the paper's drawback (1).
			e.net.Locate(h)
			if !e.net.Host(h).Connected() {
				continue
			}
			sim.ScheduleAfter(markerLatency, "marker", func(sim *des.Simulator, now des.Time) {
				if e.net.Host(h).Connected() {
					defer e.restoreCauseAll(e.setCauseAll("marker"))
					init.OnMarker(h)
					if ck := e.slots[i].check; ck != nil {
						ck.AfterMarker(h)
					}
				}
			})
		}
		sim.Again(period)
	}
	e.sim.Schedule(e.sim.Now()+period, "snapshot", tick)
}

// scheduleTicks drives a Periodic protocol: every SnapshotPeriod each
// connected host takes its timer-driven local checkpoint. No control
// messages travel — the tick is local to the host.
func (e *engine) scheduleTicks(i int, per protocol.Periodic) {
	period := e.cfg.SnapshotPeriod
	tick := func(sim *des.Simulator, now des.Time) {
		defer e.restoreCauseAll(e.setCauseAll("tick"))
		for h := 0; h < e.cfg.Mobile.NumHosts; h++ {
			if e.net.Host(mobile.HostID(h)).Connected() {
				per.OnTick(mobile.HostID(h))
				if ck := e.slots[i].check; ck != nil {
					ck.AfterTick(mobile.HostID(h))
				}
			}
		}
		sim.Again(period)
	}
	e.sim.Schedule(e.sim.Now()+period, "tick", tick)
}

// scheduleGC periodically reclaims unreachable checkpoints from every
// index-based protocol's store (E11). Garbage collection is sound only
// for protocols whose recovery lines are index cuts, so other protocols
// are skipped.
func (e *engine) scheduleGC() {
	tick := func(sim *des.Simulator, now des.Time) {
		// The frontier must cover every current host: a host joined after
		// Start sits at a low index, and pruning past it would destroy the
		// lines its failure still needs.
		n := e.net.NumHosts()
		for i := range e.slots {
			s := &e.slots[i]
			if !indexBased(s.name) {
				continue
			}
			stable := recovery.StableIndex(s.store, n)
			if stable > s.gcFrontier {
				s.gcFrontier = stable
			}
			records, _ := recovery.CollectGarbage(s.store, n)
			s.gcReclaimed += records
			if live := s.store.LiveRecords(-1); live > s.peakLive {
				s.peakLive = live
			}
			if s.mlog != nil {
				// The message log shares the frontier (collecting the
				// checkpoints below it moved neither it nor the stable
				// index): an entry whose receive precedes the earliest
				// checkpoint any future recovery line restores for its
				// host can never be replayed, so its stable storage is
				// reclaimed with the checkpoints'.
				for h := 0; h < n; h++ {
					s.mlog.PruneDelivered(mobile.HostID(h), recovery.Frontier(s.store, mobile.HostID(h), stable))
				}
			}
		}
		sim.Again(e.cfg.GCInterval)
	}
	e.sim.Schedule(e.sim.Now()+e.cfg.GCInterval, "gc", tick)
}

// join admits one new host: into the network, into every protocol (via
// Dynamic) and into the workload. Hosts joining mid-run immediately
// communicate and roam like any other.
func (e *engine) join() {
	defer e.restoreCauseAll(e.setCauseAll("join"))
	if e.joinRNG == nil {
		// Stream ids: host i owns 2i/2i+1, the loss model owns 1<<32;
		// (1<<33)+1 collides with none of them at any feasible n.
		e.joinRNG = rng.NewStream(e.cfg.Seed, (1<<33)+1)
	}
	at := mobile.MSSID(e.joinRNG.Intn(e.cfg.Mobile.NumMSS))
	id, err := e.net.AddHost(at)
	if err != nil {
		panic("sim: " + err.Error())
	}
	if e.tl != nil {
		e.tl.SetTrack(int(id), fmt.Sprintf("MH %d (joined)", id))
		e.tl.Instant(float64(e.sim.Now()), int(id), "join",
			"at", strconv.Itoa(int(at)))
		// Joins run world-stopped: grow the per-host timeline tables here
		// so lane handlers never reallocate them mid-run.
		for int(id) >= len(e.sendOrd) {
			e.sendOrd = append(e.sendOrd, 0)
		}
		for int(id) >= len(e.discAt) {
			e.discAt = append(e.discAt, -1)
		}
	}
	e.pendingLatency = append(e.pendingLatency, 0)
	if e.reg != nil && e.core != nil {
		// Joins run world-stopped: grow the per-host counter tables here so
		// the lanes never reallocate them mid-run.
		for i := range e.slots {
			s := &e.slots[i]
			for int(id) >= len(s.forcedHost) {
				s.forcedHost = append(s.forcedHost, nil)
			}
		}
	}
	for i := range e.slots {
		s := &e.slots[i]
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
	e.driver.AddHost(id, e.cfg.Seed)
}

// run executes the configured horizon and returns the assembled result.
func (e *engine) run() *Result {
	if e.tl != nil {
		for h := 0; h < e.cfg.Mobile.NumHosts; h++ {
			e.tl.SetTrack(h, fmt.Sprintf("MH %d", h))
		}
	}
	func() {
		defer e.restoreCauseAll(e.setCauseAll("init"))
		for i := range e.slots {
			s := &e.slots[i]
			s.proto.Init()
			if s.check != nil {
				s.check.AfterInit(e.cfg.Mobile.NumHosts)
			}
		}
	}()
	for i := range e.slots {
		if init, ok := e.slots[i].proto.(protocol.Initiator); ok {
			e.scheduleSnapshots(i, init)
		}
		if per, ok := e.slots[i].proto.(protocol.Periodic); ok {
			e.scheduleTicks(i, per)
		}
	}
	if e.cfg.GCInterval > 0 {
		e.scheduleGC()
	}
	for _, at := range e.cfg.JoinTimes {
		e.sim.At(at, "join", func(sim *des.Simulator, now des.Time) {
			e.join()
		})
	}
	if e.cfg.Progress != nil {
		every := e.cfg.ProgressEvery
		if every == 0 {
			every = e.cfg.Horizon / 10
		}
		if every > 0 {
			beat := func(sim *des.Simulator, now des.Time) {
				e.cfg.Progress(now, sim.Fired())
				if now+every <= e.cfg.Horizon {
					sim.Again(every)
				}
			}
			e.sim.Schedule(every, "progress", beat)
		}
	}
	e.driver.Start()
	if e.core != nil {
		// The lanes execute the world; the coordinator interleaves the
		// global timeline (markers, ticks, GC, joins) world-stopped. The
		// post-run drain fires the global tail — timer events past the last
		// lane event but at or before the horizon.
		e.inGlobalPhase = false
		e.core.Run()
		e.inGlobalPhase = true
	}
	e.sim.Run(e.cfg.Horizon)
	return e.result()
}
