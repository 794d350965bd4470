package sim

import (
	"strconv"

	"mobickpt/internal/check"
	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/protocol"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// wireWorld builds the network, the protocol slots and the driver, in
// that order: protocols need the network for host locations, and the
// driver sends through both.
func (e *engine) wireWorld() error {
	cfg := e.cfg
	n := cfg.Mobile.NumHosts
	if e.tl != nil {
		e.discAt = make([]des.Time, n)
		for i := range e.discAt {
			e.discAt[i] = -1
		}
		e.sendOrd = make([]uint64, n)
	}
	net, err := mobile.NewSched(e.sched, e.laneCount, cfg.Mobile, e.hooks())
	if err != nil {
		return err
	}
	if cfg.Mobile.LossProbability > 0 {
		// A dedicated stream: losses must not perturb the workload's
		// randomness, or traces would stop being loss-model-independent.
		net.SetLossSource(rng.NewStream(cfg.Seed, 1<<32))
	}
	if cfg.Probes {
		e.msgProbe = make([]probe.PoolProbe, e.laneCount)
		net.SetPoolProbe(e.msgProbe)
	}
	e.net = net

	e.slots = make([]slot, len(cfg.Protocols))
	for i := range e.slots {
		if err := e.initSlot(i); err != nil {
			return err
		}
	}

	e.pendingLatency = make([]des.Time, n)
	cb := workload.Callbacks{
		Send:    e.send,
		Receive: func(h mobile.HostID) bool { return net.TryReceive(h) != nil },
	}
	if cfg.CheckpointLatency > 0 {
		cb.ExtraDelay = func(h mobile.HostID) des.Time {
			d := e.pendingLatency[h]
			e.pendingLatency[h] = 0
			return d
		}
	}
	e.driver, err = workload.NewDriverSched(e.sched, e.laneCount, net, cfg.Workload, cfg.Seed, cb)
	return err
}

// initSlot fills protocol slot i: its store, the optional trace, message
// log and checker, the metric caches, and the protocol instance itself,
// built from the registry.
func (e *engine) initSlot(i int) error {
	cfg := e.cfg
	n := cfg.Mobile.NumHosts
	s := &e.slots[i]
	s.name = cfg.Protocols[i]
	s.store = storage.NewStore(cfg.Cost)
	s.counts = make([]int, n)
	if e.reg != nil {
		s.ckptByCause = make(map[string]*obs.Counter)
		if e.core != nil {
			// Pre-create the counters lane handlers may hit, so the
			// cache map is never written concurrently: mobility and
			// delivery events run on lanes, everything else (markers,
			// ticks, joins) runs world-stopped and may still create
			// counters lazily.
			for _, key := range []string{"initial", "forced", "basic-switch", "basic-disconnect"} {
				s.ckptByCause[key] = e.reg.Counter("sim_checkpoints_total",
					"proto", string(s.name), "cause", key)
			}
			s.forcedHost = make([]*obs.Counter, n)
		}
	}
	if cfg.RecordTrace {
		s.trace = trace.New(n)
	}
	var err error
	if s.mlog, err = cfg.newMessageLog(); err != nil {
		return err
	}
	if s.mlog != nil && e.tl != nil {
		nm := string(s.name)
		s.mlog.OnFlush = func(h mobile.HostID, entries int) {
			e.tl.Instant(float64(e.sim.Now()), int(h), "log-flush",
				"proto", nm, "entries", strconv.Itoa(entries))
		}
	}
	ent, _ := protocol.Lookup(string(s.name)) // Validate resolved every name
	s.proto = ent.New(n, e.checkpointer(i), s.store, func(h mobile.HostID) mobile.MSSID {
		return e.net.Host(h).LastMSS()
	})
	if cfg.Checks {
		s.check = check.NewRuntime(string(s.name), s.proto, s.store, e.sim.Now)
	}
	return nil
}

// hooks mirrors the network's mobility and delivery events into every
// protocol slot, the timeline and the recorded traces.
func (e *engine) hooks() mobile.Hooks {
	return mobile.Hooks{
		OnDeliver: e.onDeliver,
		OnCellSwitch: func(now des.Time, h *mobile.Host, from, to mobile.MSSID) {
			defer e.restoreCauseFor(h.ID, e.setCauseFor(h.ID, "switch"))
			for i := range e.slots {
				s := &e.slots[i]
				s.proto.OnCellSwitch(h.ID, to)
				if s.check != nil {
					s.check.AfterCellSwitch(h.ID)
				}
				if s.mlog != nil {
					// The message log follows its host like the
					// checkpoints do (§2.2's transfer operation).
					s.mlog.Handoff(h.ID, to)
				}
			}
			if e.tl != nil {
				e.tl.Instant(float64(now), int(h.ID), "handoff",
					"from", strconv.Itoa(int(from)), "to", strconv.Itoa(int(to)))
			}
			e.recordMobility(h.ID, trace.Handoff, from, to, now)
		},
		OnDisconnect: func(now des.Time, h *mobile.Host) {
			defer e.restoreCauseFor(h.ID, e.setCauseFor(h.ID, "disconnect"))
			for i := range e.slots {
				s := &e.slots[i]
				s.proto.OnDisconnect(h.ID)
				if s.check != nil {
					s.check.AfterDisconnect(h.ID)
				}
				if s.mlog != nil {
					// The disconnection checkpoint makes the host's state
					// durable; the log suffix writes through with it.
					s.mlog.Flush(h.ID)
				}
			}
			if e.tl != nil {
				e.markDisconnected(h.ID, now)
				e.tl.Instant(float64(now), int(h.ID), "disconnect",
					"from", strconv.Itoa(int(h.LastMSS())))
			}
			e.recordMobility(h.ID, trace.Disconnect, h.LastMSS(), mobile.NoMSS, now)
		},
		OnReconnect: func(now des.Time, h *mobile.Host, at mobile.MSSID) {
			defer e.restoreCauseFor(h.ID, e.setCauseFor(h.ID, "reconnect"))
			for i := range e.slots {
				s := &e.slots[i]
				s.proto.OnReconnect(h.ID, at)
				if s.check != nil {
					s.check.AfterReconnect(h.ID)
				}
			}
			if e.tl != nil {
				if start, ok := e.takeDisconnected(h.ID); ok {
					e.tl.Span(float64(start), float64(now-start), int(h.ID), "disconnected")
				}
				e.tl.Instant(float64(now), int(h.ID), "reconnect",
					"at", strconv.Itoa(int(at)))
			}
			e.recordMobility(h.ID, trace.Reconnect, mobile.NoMSS, at, now)
		},
	}
}
