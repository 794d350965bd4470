package main

import (
	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/rng"
	"mobickpt/internal/sim"
	"mobickpt/internal/workload"
)

// The layer peel runs the same simulated history at three depths of the
// stack and attributes sim.Run's wall time by difference:
//
//	L0  engine only: des + equeue firing as many no-op events as the run
//	    fired, at the run's pending-set depth (a hold model)
//	L1  engine + world: des, mobile and workload wired as sim wires them,
//	    with no protocol, trace or log attached
//	L2  sim.Run
//
// L1 and L2 must fire the same events and carry the same messages, or the
// difference between them is not "the protocols".

// holdModel fires events no-op events through a des.Simulator whose
// pending set holds depth self-rescheduling handlers with Exp(1)
// increments. It returns the wall time of filling the pending set and of
// firing the events.
func holdModel(rec *recorder, name string, kind des.QueueKind, depth int, events uint64, seed uint64) (fillS, runS float64) {
	const mask = 1<<16 - 1
	src := rng.NewStream(seed, 0xb0)
	inc := make([]des.Time, mask+1)
	for i := range inc {
		inc[i] = des.Time(src.Exp(1))
	}
	s := des.NewWith(kind)
	i := 0
	var fn des.ArgHandler
	fn = func(s *des.Simulator, now des.Time, arg any) {
		if s.Fired() >= events {
			s.Stop()
			return
		}
		i++
		s.ScheduleArgAfter(inc[i&mask], "hold", fn, nil)
	}
	id := rec.begin(name)
	defer rec.end(id)
	fillS = rec.timed("des.ScheduleArgAfter", func() {
		for j := 0; j < depth; j++ {
			s.ScheduleArgAfter(inc[j&mask], "hold", fn, nil)
		}
	})
	if events > 0 {
		// The horizon lies far beyond the last event; Stop ends the run.
		runS = rec.timed("des.Run", func() { s.Run(des.Time(events)) })
	}
	return fillS, runS
}

// worldRun is the outcome of the protocol-free world.
type worldRun struct {
	wallS    float64
	events   uint64
	messages int64
	depth    int // pending events right after Start
	// set-up split, for the n=1e5 construction metrics
	newNetS, newDriverS, startS float64
}

// worldOnly builds and runs L1: the engine binding sim.newEngine uses (one
// shared des.Solo surface for network and driver) minus everything the
// protocols, traces and logs hang on it.
func worldOnly(rec *recorder, name string, cfg sim.Config) (worldRun, error) {
	var w worldRun
	var err error
	id := rec.begin(name)
	defer rec.end(id)
	s := des.NewWith(cfg.Queue)
	sched := des.Solo(s)
	var net *mobile.Network
	w.newNetS = rec.timed("mobile.NewSched", func() { net, err = mobile.NewSched(sched, 1, cfg.Mobile, mobile.Hooks{}) })
	if err != nil {
		return w, err
	}
	cb := workload.Callbacks{
		Send: func(from, to mobile.HostID) {
			if _, err := net.Send(from, to, nil); err != nil {
				panic("bench: " + err.Error()) // the driver only sends from connected hosts
			}
		},
		Receive: func(h mobile.HostID) bool {
			m := net.TryReceive(h)
			if m == nil {
				return false
			}
			net.Recycle(m)
			return true
		},
	}
	var d *workload.Driver
	w.newDriverS = rec.timed("workload.NewDriverSched", func() {
		d, err = workload.NewDriverSched(sched, 1, net, cfg.Workload, cfg.Seed, cb)
	})
	if err != nil {
		return w, err
	}
	w.startS = rec.timed("workload.Start", d.Start)
	w.depth = s.Pending()
	runS := rec.timed("des.Run", func() { s.Run(cfg.Horizon) })
	w.wallS = w.newNetS + w.newDriverS + w.startS + runS
	w.events = s.Fired()
	w.messages = net.Counters().AppMessages
	return w, nil
}

// runPeel measures L0 and L1 (and, for workloads whose reps are not one
// sim.Run, L2 with and without probes) and reports the raw levels; the
// parent turns them into the sim.peel.* metrics.
func runPeel(sp Spec, rec *recorder) *Result {
	out := &Result{Layer: map[string]float64{}}
	id := rec.begin(sp.Workload + "/peel")
	defer rec.end(id)
	cfg := sp.Sim.config()
	events := sp.Peel.Events
	if sp.Peel.WithL2 {
		var res *sim.Result
		var err error
		mem := measureMem(func() {
			out.RunS = rec.timed("L2 sim.Run", func() { res, err = sim.Run(cfg) })
		})
		out.Attempted++
		if err != nil {
			out.fail("peel L2: %v", err)
			return out
		}
		checkResult(res, out)
		st := statsOf(res)
		out.Stats = &st
		events = res.EventsFired
		if events > 0 {
			out.Layer["sim.alloc_bytes_per_event"] = float64(mem.allocBytes) / float64(events)
		}
		out.Layer["sim.num_gc"] = float64(mem.numGC)
		out.Layer["sim.gc_cpu_share"] = gcCPUShare()

		probed := cfg
		probed.Probes = true
		rec.timed("L2 sim.Run[probes]", func() { res, err = sim.Run(probed) })
		out.Attempted++
		if err != nil {
			out.fail("peel L2 with probes: %v", err)
			return out
		}
		probeMetrics(res.Probes, out.Layer)

		zero := cfg
		zero.Horizon = zeroHorizon
		out.Layer["sim.run_zero_horizon_s"] = rec.timed("sim.Run[zero-horizon]", func() { _, err = sim.Run(zero) })
		if err != nil {
			out.fail("peel zero-horizon run: %v", err)
			return out
		}
	}
	// L0 before L1: the hold model is small, the world's garbage is not.
	depth := 2 * cfg.Mobile.NumHosts // one operation and one mobility timer pending per host
	fillS, runS := holdModel(rec, "L0 hold model", cfg.Queue, depth, events, sp.Seed)
	out.Layer["peel.l0_s"] = fillS + runS
	w, err := worldOnly(rec, "L1 world", cfg)
	out.Attempted++
	if err != nil {
		out.fail("peel L1: %v", err)
		return out
	}
	out.Layer["peel.l1_s"] = w.wallS
	out.Layer["peel.l1_events"] = float64(w.events)
	out.Layer["peel.l1_messages"] = float64(w.messages)
	return out
}

// peelMetrics turns the three levels into the sim.peel.* metrics. The
// terms are clamped at zero, so they sum to L2 exactly when the levels
// nest; unattributed_share is the part of L2 by which they do not (the
// hold model costing more than the world it models, or noise putting L1
// above L2).
func peelMetrics(l0, l1, l2 float64, l1Events uint64, l1Messages int64, st SimStats, layer map[string]float64) {
	engine := l0
	world := max(0, l1-l0)
	protocol := max(0, l2-l1)
	layer["sim.peel.engine_s"] = engine
	layer["sim.peel.world_s"] = world
	layer["sim.peel.protocol_s"] = protocol
	equal := 0.0
	if l1Events == st.Events && l1Messages == st.Messages {
		equal = 1
	}
	layer["sim.peel.events_equal"] = equal
	if l2 > 0 {
		layer["sim.peel.unattributed_share"] = (engine + world + protocol - l2) / l2
	}
	if st.Events > 0 {
		layer["workload.op_ns"] = world * 1e9 / float64(st.Events)
	}
}
