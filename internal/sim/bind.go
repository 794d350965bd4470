package sim

import (
	"runtime"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protoside"
	"mobickpt/internal/trace"
)

// coreSched adapts pdes.Core to des.Sched for the world model. Labels
// classify events: the three mobility transitions mutate cross-lane-
// visible shared state (a hand-off moves the host between stations other
// lanes' sends route through), so they are flagged as writes and execute
// as the core's serialized steps; every other world event is lane-local. Route — the message hop — is never a write: it
// lands on the receiver's own timeline.
type coreSched struct {
	core *pdes.Core
	e    *engine
}

// writeLabel reports whether a world event label names a shared-state
// write. Scheduling a new shared-state mutation under a different label
// would silently race.
func writeLabel(label string) bool {
	switch label {
	case "handoff", "disconnect", "reconnect":
		return true
	}
	return false
}

// Now returns the virtual time on owner's timeline: the global clock
// while single-threaded (pre-run scheduling and world-stopped global
// events — a parked lane's local time would predate the global event),
// the lane's local time while its handler executes.
func (s *coreSched) Now(owner int) des.Time {
	if s.e.inGlobalPhase {
		return s.e.sim.Now()
	}
	return s.core.Now(owner)
}

func (s *coreSched) ScheduleArg(owner int, at des.Time, label string, fn des.ArgHandler, arg any) {
	s.core.Schedule(owner, owner, at, fn, arg, writeLabel(label))
}

func (s *coreSched) ScheduleArgAfter(owner int, delay des.Time, label string, fn des.ArgHandler, arg any) {
	s.core.Schedule(owner, owner, s.Now(owner)+delay, fn, arg, writeLabel(label))
}

func (s *coreSched) Route(from, owner int, at des.Time, label string, fn des.ArgHandler, arg any) {
	s.core.Schedule(from, owner, at, fn, arg, false)
}

// Inline credits the step to owner's lane, the one executing it; the core
// keeps no per-label counts.
func (s *coreSched) Inline(owner int, at des.Time, _ string) bool {
	return s.core.Inline(owner, at)
}

// bindEngine gives the world its scheduling surface: des.Solo over the
// global simulator for sequential runs, a coreSched over a lane-sharded
// pdes.Core for parallel ones (the global simulator then carries only
// the world-stopped timeline: markers, ticks, GC, joins). It also sizes
// the lane-sharded state — the payload free lists and the lanes' entry
// buffers — which both surfaces index the same way.
func (e *engine) bindEngine() error {
	cfg := e.cfg
	if cfg.Probes {
		e.sim.EnableProbe(&e.simPool, &e.simQueue)
	}
	lanes := 1
	e.inGlobalPhase = true // single-threaded until the lanes start
	if cfg.Engine == pdes.ModeSequential {
		e.sched = des.Solo(e.sim)
	} else {
		lanes = cfg.Lanes
		if lanes <= 0 {
			lanes = runtime.GOMAXPROCS(0)
		}
		if cfg.Probes {
			e.coreProbe = &pdes.CoreProbe{}
		}
		core, err := pdes.NewCore(pdes.CoreConfig{
			Lanes:   lanes,
			Horizon: cfg.Horizon,
			// The minimum cross-lane message delay: every cross-lane hop is
			// a wireless uplink to the receiver's station (Route at
			// now + WirelessLatency); wired forwarding and the downlink
			// happen on the receiving lane's own timeline.
			Lookahead:  cfg.Mobile.WirelessLatency,
			GlobalNext: e.sim.NextTime,
			GlobalStep: func() {
				e.inGlobalPhase = true
				e.sim.Step()
				e.inGlobalPhase = false
			},
			Parked: e.applyLanes,
			Probe:  e.coreProbe,
		})
		if err != nil {
			return err
		}
		e.core = core
		e.sched = &coreSched{core: core, e: e}
	}
	// A message log refers to the history's delivery rows, and the
	// timeline is drawn from the history, so a logged run and a run with a
	// timeline record one too; the slots' trace views stay tied to
	// RecordTrace.
	var hist *trace.History
	if cfg.RecordTrace || cfg.MessageLog != mlog.Off || cfg.Timeline != nil {
		hist = trace.NewHistory(cfg.Mobile.NumHosts, cfg.Mobile.NumMSS)
	}
	e.Side = protoside.New(len(cfg.Protocols), cfg.Mobile.NumHosts, cfg.Mobile.NumMSS, hist, cfg.Metrics)
	e.lanes = lanes
	e.plFree = make([][]*payload, lanes)
	e.laneEntries = make([][]entry, lanes)
	// A lane engine's coordinator applies its own entries in line, as it
	// does its lanes'; a checkpoint latency is read back by the world's
	// next operation.
	e.inline = e.core != nil || cfg.CheckpointLatency > 0
	return nil
}
