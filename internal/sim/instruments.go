package sim

import (
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/protocol"
)

// instrument registers the run's instruments on e.reg: the simulator's,
// the parallel core's, the per-protocol and world-level sim_* families
// and, with Config.Probes, the sim_probe_* view of the internals probes.
// All of them are sampled — read from the engine's own tallies at
// snapshot time — so registering costs the hot paths nothing; the two
// counter families the checkpointer increments directly are cached per
// slot (initSlot).
func (e *engine) instrument() {
	e.sim.Instrument(e.reg)
	if e.core != nil {
		e.core.Stats().Instrument(e.reg)
	}
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
		{"sim_app_messages_total", "Application messages sent through the network."},
		{"sim_net_ctrl_messages_total", "Network-level control messages (location queries/updates)."},
		{"sim_wireless_hops_total", "Message hops over the wireless medium."},
		{"sim_wired_hops_total", "Message hops over the wired backbone."},
		{"sim_workload_sends_total", "Send operations issued by the workload."},
		{"sim_workload_receives_total", "Receive operations completed by the workload."},
	} {
		e.reg.Help(h[0], h[1])
	}
	for i := range e.slots {
		s := &e.slots[i]
		name := string(s.name)
		e.reg.CounterFunc("sim_piggyback_bytes_total",
			func() int64 { return s.proto.PiggybackBytes() }, "proto", name)
		e.reg.CounterFunc("sim_gc_reclaimed_total",
			func() int64 { return int64(s.gcReclaimed) }, "proto", name)
		e.reg.GaugeFunc("sim_gc_peak_live_records",
			func() int64 { return int64(s.peakLive) }, "proto", name)
		e.reg.CounterFunc("sim_join_ctrl_messages_total",
			func() int64 { return s.joinCtrl }, "proto", name)
		if init, ok := s.proto.(protocol.Initiator); ok {
			e.reg.CounterFunc("sim_ctrl_messages_total",
				func() int64 { return init.ControlMessages() }, "proto", name)
		}
		if tp, ok := s.proto.(*protocol.TP); ok {
			// How often a sender's vectors change between its sends
			// (E26): sends that took a new view versus sends that
			// shared the previous one.
			e.reg.CounterFunc("sim_tp_vector_copies_total",
				func() int64 { c, _ := tp.SnapshotStats(); return c }, "proto", name)
			e.reg.CounterFunc("sim_tp_snapshot_reuses_total",
				func() int64 { _, r := tp.SnapshotStats(); return r }, "proto", name)
		}
		if s.mlog != nil {
			s.mlog.Instrument(e.reg, nil, "proto", name)
		}
	}
	e.reg.CounterFunc("sim_app_messages_total",
		func() int64 { return e.net.Counters().AppMessages })
	e.reg.CounterFunc("sim_net_ctrl_messages_total",
		func() int64 { return e.net.Counters().CtrlMessages })
	e.reg.CounterFunc("sim_wireless_hops_total",
		func() int64 { return e.net.Counters().WirelessHops })
	e.reg.CounterFunc("sim_wired_hops_total",
		func() int64 { return e.net.Counters().WiredHops })
	e.reg.CounterFunc("sim_workload_sends_total",
		func() int64 { return e.driver.Counters().Sends })
	e.reg.CounterFunc("sim_workload_receives_total",
		func() int64 { return e.driver.Counters().Receives })
	if e.cfg.Probes {
		e.instrumentProbes()
	}
}

// instrumentProbes registers the sim_probe_* instruments over the
// engine-internals probes. The probes are plain single-writer cells, so
// these funcs are only safe to sample at quiescence (after Run returns,
// which is when the engine's own snapshot paths read them); a live scrape
// mid-run would race with the lanes.
func (e *engine) instrumentProbes() {
	for _, h := range [][2]string{
		{"sim_probe_pool_hits_total", "Pool acquisitions served from the free list."},
		{"sim_probe_pool_misses_total", "Pool acquisitions that allocated fresh objects."},
		{"sim_probe_pool_recycled_total", "Objects returned to the pool free list."},
		{"sim_probe_queue_pushes_total", "Events pushed into the pending-event set."},
		{"sim_probe_queue_pops_total", "Events popped from the pending-event set."},
		{"sim_probe_queue_peak_len", "Peak pending-event-set length."},
		{"sim_probe_queue_chain_steps_total", "Calendar records shifted by in-order insertion into the open bucket."},
		{"sim_probe_queue_sweep_steps_total", "Calendar buckets examined by the sweep on pop."},
		{"sim_probe_queue_resizes_total", "Calendar bucket-array reallocations."},
		{"sim_probe_lane_events_total", "Events executed across PDES lanes."},
		{"sim_probe_lane_windows_total", "Synchronization windows executed across lanes."},
		{"sim_probe_lane_mailbox_msgs_total", "Cross-lane mailbox messages received."},
		{"sim_probe_lane_spin_yields_total", "Scheduler yields burned waiting on the lag frontier."},
	} {
		e.reg.Help(h[0], h[1])
	}
	pool := func(name string, read func() probe.PoolProbe) {
		e.reg.CounterFunc("sim_probe_pool_hits_total",
			func() int64 { return int64(read().Hits) }, "pool", name)
		e.reg.CounterFunc("sim_probe_pool_misses_total",
			func() int64 { return int64(read().Misses) }, "pool", name)
		e.reg.CounterFunc("sim_probe_pool_recycled_total",
			func() int64 { return int64(read().Recycled) }, "pool", name)
	}
	pool("event", func() probe.PoolProbe { return e.simPool })
	pool("message", func() probe.PoolProbe {
		var m probe.PoolProbe
		for i := range e.msgProbe {
			m.Merge(e.msgProbe[i])
		}
		return m
	})
	e.reg.CounterFunc("sim_probe_queue_pushes_total",
		func() int64 { return int64(e.simQueue.Pushes) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_pops_total",
		func() int64 { return int64(e.simQueue.Pops) }, "queue", "global")
	e.reg.GaugeFunc("sim_probe_queue_peak_len",
		func() int64 { return int64(e.simQueue.MaxLen) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_chain_steps_total",
		func() int64 { return int64(e.simQueue.ChainSteps) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_sweep_steps_total",
		func() int64 { return int64(e.simQueue.SweepSteps) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_resizes_total",
		func() int64 { return int64(e.simQueue.Resizes) }, "queue", "global")
	if e.coreProbe != nil {
		lanes := func(pick func(*probe.LaneProbe) uint64) func() int64 {
			return func() int64 {
				var s uint64
				for i := range e.coreProbe.Lanes {
					s += pick(&e.coreProbe.Lanes[i])
				}
				return int64(s)
			}
		}
		e.reg.CounterFunc("sim_probe_lane_events_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.Events }))
		e.reg.CounterFunc("sim_probe_lane_windows_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.Windows }))
		e.reg.CounterFunc("sim_probe_lane_mailbox_msgs_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.MailboxMsgs }))
		e.reg.CounterFunc("sim_probe_lane_spin_yields_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.SpinYields }))
	}
}
