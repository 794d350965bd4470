// Package sim is the experiment engine: it wires the DES clock, the
// mobile network, the workload drivers, the checkpoint stores and the
// checkpointing protocols into one run, and reproduces the paper's
// methodology.
//
// A key property (shared with the paper's study): checkpoint insertion is
// instantaneous and does not perturb the application, so the message and
// mobility trace of a run depends only on the seed — never on the
// protocol. The engine exploits that by evaluating *all requested
// protocols simultaneously over the same trace*: the protocol side keeps
// one piggyback slot per protocol for each application message in flight,
// and each protocol keeps its own checkpoint store. This gives an exact
// like-for-like comparison in a single pass (the ablation bench verifies
// it matches per-protocol re-simulation). Recorded (Config.RecordTrace),
// the trace is kept once, as one history, and each protocol keeps only
// its two checkpoint counts per message.
//
// The same property lets the protocol side run beside the world
// (pipeline.go): every event reaches it as one bare trace.Event — the
// network moves messages without their piggybacks — applied on a second
// goroutine or between the lane engine's windows, and the world waits for
// it only where it reads protocol state. Under
// Config.CheckpointLatency a checkpoint delays the host's next
// operation, so every event is applied in line.
package sim

import (
	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/rng"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// Run executes one simulation. With Config.Checks set, a run that
// violates a protocol invariant returns the (partial) result together
// with a check.Violations error describing every broken rule. A panic in
// a protocol callback is re-raised on the caller's goroutine; from the
// consumer goroutine (pipeline.go) it comes wrapped with that one's stack.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run; prep, when non-nil, adjusts the wired engine before it
// runs (the tests' hook: an in-line reference run, a failing protocol).
func run(cfg Config, prep func(*engine)) (*Result, error) {
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
	if prep != nil {
		prep(e)
	}
	res := e.run()
	if cfg.Checks {
		if err := e.FinishChecks(res.FinalHosts); err != nil {
			return res, err
		}
	}
	return res, nil
}

// engine is the generative world — DES clock, network, workload driver,
// markers, ticks, GC, joins, lanes — around the protocol side it drives.
type engine struct {
	*protoside.Side

	cfg    Config
	sim    *des.Simulator
	net    *mobile.Network
	driver *workload.Driver

	// inline applies every event on the goroutine that pushes it
	// (CheckpointLatency, and the lane engine's coordinator); otherwise a
	// pipeline ships them to a consumer goroutine. Set before the run
	// starts.
	//
	//lane:stopped decided while wiring, before any lane runs
	inline bool
	// pipe is the sequential run's pipeline to the protocol side, nil
	// until the first event (and always with inline).
	pipe *pipeline
	// laneEvents[l] holds the events lane l pushed since the lanes last
	// parked; the coordinator applies them then (applyLanes). Only the
	// lane engine fills it.
	//
	//lane:shard
	laneEvents [][]trace.Event

	// sched is the scheduling surface the world model runs on: des.Solo
	// over sim for sequential runs, a coreSched over core for parallel
	// ones. Lane-sharded engine state (laneEvents) is indexed by laneOf,
	// pdes.Core's owner-to-lane map, over lanes lanes (1 for the
	// sequential engine).
	sched des.Sched
	core  *pdes.Core
	lanes int
	// inGlobalPhase is true whenever the engine is single-threaded: before
	// core.Run, inside world-stopped global-timeline events, and during
	// the post-run drain. Toggled only while no lane handler executes (the
	// coordinator's window barrier orders the accesses), it routes
	// now() to the global clock instead of a parked lane's local time,
	// and has push apply the coordinator's own events in line rather
	// than buffer them for a lane.
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

	// pendingLatency accumulates checkpoint time to charge against each
	// host's next operation (only with a single protocol selected).
	pendingLatency []des.Time

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

// now returns the virtual time on host h's timeline: the global clock
// while single-threaded (sequential runs, init, world-stopped global
// events), h's lane-local time while its lane handler executes.
func (e *engine) now(h mobile.HostID) des.Time {
	if e.core == nil || e.inGlobalPhase {
		return e.sim.Now()
	}
	return e.sched.Now(int(h))
}

// laneOf is the lane host h's events run on: pdes.Core's owner % P map.
func (e *engine) laneOf(h mobile.HostID) int { return int(h) % e.lanes }

// newEngine wires a validated configuration into a runnable engine:
// scheduling surface first, then the world on top of it, then — only
// with Config.Metrics — the instruments that read both.
func newEngine(cfg Config) (*engine, error) {
	e := &engine{cfg: cfg, sim: des.NewWith(cfg.Queue)}
	if err := e.bindEngine(); err != nil {
		return nil, err
	}
	if err := e.wireWorld(); err != nil {
		return nil, err
	}
	if e.cfg.Metrics != nil {
		e.instrument()
	}
	return e, nil
}

// send hands a message to the network and its send to the protocol side,
// which keeps the message's piggybacks until its delivery: the network
// only moves the message.
//
//lane:handler
func (e *engine) send(from, to mobile.HostID) {
	m, err := e.net.Send(from, to, nil)
	if err != nil {
		panic("sim: " + err.Error()) // the driver only sends from connected hosts
	}
	e.push(trace.Event{Kind: trace.Send, At: e.now(from), Host: int32(from), Peer: int32(to), Msg: m.ID, Arg: int32(m.ID)})
}

// deliver hands a delivered message to the protocol side and returns the
// message to its pool for the next send.
//
//lane:handler
func (e *engine) deliver(now des.Time, h *mobile.Host, m *mobile.Message) {
	e.push(trace.Event{Kind: trace.Deliver, At: now, Host: int32(h.ID), Peer: int32(m.From), Msg: m.ID, Arg: int32(m.ID)})
	e.net.Recycle(m)
}

// scheduleSnapshots drives slot i's coordinated baseline: every period
// a marker round starts, the initiator picks its targets, and markers
// travel to currently connected hosts (a disconnected host is represented
// by its disconnection checkpoint, §2.2, so it skips the round). The
// round's start and each marker that arrives are events; the world reads
// the round's targets from the slot, so it drains the pipeline first.
func (e *engine) scheduleSnapshots(i int) {
	period := e.cfg.SnapshotPeriod
	markerLatency := e.cfg.Mobile.WiredLatency + e.cfg.Mobile.WirelessLatency
	tick := func(sim *des.Simulator, now des.Time) {
		e.push(trace.Event{Kind: trace.Round, At: now, Host: -1, Arg: int32(i)})
		e.drain()
		for _, h := range e.Slots[i].Targets {
			// One location query per marker: the paper's drawback (1).
			e.net.Locate(h)
			if !e.net.Host(h).Connected() {
				continue
			}
			sim.ScheduleAfter(markerLatency, "marker", func(sim *des.Simulator, now des.Time) {
				if e.net.Host(h).Connected() {
					e.push(trace.Event{Kind: trace.Marker, At: now, Host: int32(h), Arg: int32(i)})
				}
			})
		}
		sim.Again(period)
	}
	e.sim.Schedule(e.sim.Now()+period, "snapshot", tick)
}

// scheduleTicks drives slot i's timer-driven protocol: every
// SnapshotPeriod each connected host takes its timer-driven local
// checkpoint, one tick event per host. No control messages travel — the
// tick is local to the host.
func (e *engine) scheduleTicks(i int) {
	period := e.cfg.SnapshotPeriod
	tick := func(sim *des.Simulator, now des.Time) {
		for h := 0; h < e.cfg.Mobile.NumHosts; h++ {
			if e.net.Host(mobile.HostID(h)).Connected() {
				e.push(trace.Event{Kind: trace.Tick, At: now, Host: int32(h), Arg: int32(i)})
			}
		}
		sim.Again(period)
	}
	e.sim.Schedule(e.sim.Now()+period, "tick", tick)
}

// scheduleGC periodically pushes a GC tick, an event of no kind.
func (e *engine) scheduleGC() {
	tick := func(sim *des.Simulator, now des.Time) {
		e.push(trace.Event{At: now})
		sim.Again(e.cfg.GCInterval)
	}
	e.sim.Schedule(e.sim.Now()+e.cfg.GCInterval, "gc", tick)
}

// collect is the GC tick's body: every slot collected at its frontier
// (protoside.Slot.Frontier; E11) — every host's checkpoint records and
// logged receives that no future recovery line needs. A protocol whose
// lines are not index cuts keeps everything.
func (e *engine) collect() {
	for i := range e.Slots {
		s := &e.Slots[i]
		stable, keep := s.Frontier()
		if keep == nil {
			continue
		}
		s.GCFrontier = max(s.GCFrontier, stable)
		for h, ord := range keep {
			records, _ := s.Store.PruneBefore(mobile.HostID(h), ord)
			s.GCReclaimed += records
			if s.MLog != nil {
				s.MLog.PruneDelivered(mobile.HostID(h), ord)
			}
		}
		s.PeakLive = max(s.PeakLive, s.Store.LiveRecords(-1))
	}
}

// join admits one new host: into the network, into every protocol and
// into the workload. Hosts joining mid-run immediately communicate and
// roam like any other.
func (e *engine) join() {
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
	// Joins run world-stopped: grow the per-host tables lane handlers
	// write here, so the lanes never reallocate them mid-run.
	e.pendingLatency = append(e.pendingLatency, 0)
	e.push(trace.Event{Kind: trace.Join, At: e.sim.Now(), Host: int32(id), Arg: int32(at)})
	e.driver.AddHost(id, e.cfg.Seed)
}

// run executes the configured horizon and returns the assembled result.
func (e *engine) run() *Result {
	defer e.stopPipe()
	e.Start()
	for i := range e.Slots {
		switch e.Slots[i].Proto.(type) {
		case protocol.Initiator:
			e.scheduleSnapshots(i)
		case protocol.Periodic:
			e.scheduleTicks(i)
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
		// global timeline (markers, ticks, GC, joins) world-stopped and
		// applies the lanes' events whenever they park. The post-run
		// drain fires the global tail — timer events past the last lane
		// event but at or before the horizon.
		e.inGlobalPhase = false
		e.core.Run()
		e.inGlobalPhase = true
	}
	e.sim.Run(e.cfg.Horizon)
	e.drain()
	e.FinishTraffic()
	e.RenderTimeline(e.cfg.Timeline)
	return e.result()
}
