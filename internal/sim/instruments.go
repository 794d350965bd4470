package sim

import "mobickpt/internal/obs/probe"

// instrument registers the run's instruments on Config.Metrics: the
// simulator's, the parallel core's, the protocol side's per-slot
// families, the world-level sim_* families and, with Config.Probes, the
// sim_probe_* view of the internals probes. All of them are sampled —
// read from the engine's own tallies at snapshot time — so registering
// costs the hot paths nothing.
func (e *engine) instrument() {
	reg := e.cfg.Metrics
	e.sim.Instrument(reg)
	if e.core != nil {
		e.core.Stats().Instrument(reg)
	}
	e.Side.Instrument(nil)
	for _, h := range [][2]string{
		{"sim_app_messages_total", "Application messages sent through the network."},
		{"sim_net_ctrl_messages_total", "Network-level control messages (location queries/updates)."},
		{"sim_wireless_hops_total", "Message hops over the wireless medium."},
		{"sim_wired_hops_total", "Message hops over the wired backbone."},
		{"sim_workload_sends_total", "Send operations issued by the workload."},
		{"sim_workload_receives_total", "Receive operations completed by the workload."},
	} {
		reg.Help(h[0], h[1])
	}
	reg.CounterFunc("sim_app_messages_total",
		func() int64 { return e.net.Counters().AppMessages })
	reg.CounterFunc("sim_net_ctrl_messages_total",
		func() int64 { return e.net.Counters().CtrlMessages })
	reg.CounterFunc("sim_wireless_hops_total",
		func() int64 { return e.net.Counters().WirelessHops })
	reg.CounterFunc("sim_wired_hops_total",
		func() int64 { return e.net.Counters().WiredHops })
	reg.CounterFunc("sim_workload_sends_total",
		func() int64 { return e.driver.Counters().Sends })
	reg.CounterFunc("sim_workload_receives_total",
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
	reg := e.cfg.Metrics
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
	} {
		reg.Help(h[0], h[1])
	}
	pool := func(name string, read func() probe.PoolProbe) {
		reg.CounterFunc("sim_probe_pool_hits_total",
			func() int64 { return int64(read().Hits) }, "pool", name)
		reg.CounterFunc("sim_probe_pool_misses_total",
			func() int64 { return int64(read().Misses) }, "pool", name)
		reg.CounterFunc("sim_probe_pool_recycled_total",
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
	reg.CounterFunc("sim_probe_queue_pushes_total",
		func() int64 { return int64(e.simQueue.Pushes) }, "queue", "global")
	reg.CounterFunc("sim_probe_queue_pops_total",
		func() int64 { return int64(e.simQueue.Pops) }, "queue", "global")
	reg.GaugeFunc("sim_probe_queue_peak_len",
		func() int64 { return int64(e.simQueue.MaxLen) }, "queue", "global")
	reg.CounterFunc("sim_probe_queue_chain_steps_total",
		func() int64 { return int64(e.simQueue.ChainSteps) }, "queue", "global")
	reg.CounterFunc("sim_probe_queue_sweep_steps_total",
		func() int64 { return int64(e.simQueue.SweepSteps) }, "queue", "global")
	reg.CounterFunc("sim_probe_queue_resizes_total",
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
		reg.CounterFunc("sim_probe_lane_events_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.Events }))
		reg.CounterFunc("sim_probe_lane_windows_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.Windows }))
		reg.CounterFunc("sim_probe_lane_mailbox_msgs_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.MailboxMsgs }))
	}
}
