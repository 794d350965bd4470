package main

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics. The
// BENCHMARK.json at the repository root is this table serialised
// (`go run ./bench -benchmark-json`); the smoke test keeps the two equal.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The workload names, in ledger order.
const (
	wPaperFigures = "paper-figures"
	wScale        = "scale-1e5"
	wTP           = "tp-1e3"
	wReplay       = "replay-recovery"
	wLive         = "live-cluster"
)

var workloadDefs = []workloadDef{
	{wPaperFigures, "the six paper figures (126 runs, n=10): per-run construction, rng and small-heap cost dominate; a change tuned for huge worlds that taxes tiny ones shows here only"},
	{wScale, "one run at n=1e5 on the calendar queue, 15.7M events, 8 B piggybacks: engine and world model are all the work, protocols ~0; set-up is half of the run today"},
	{wTP, "TP alone at n=1000, 169k messages x 16 kB vectors: few events and a shallow queue, so vector merges, COW snapshots and per-checkpoint vector storage are the cost"},
	{wReplay, "n=50 run that writes trace and pessimistic message log on every delivery, then 150 timed recoveries that read them back: recording and recovery trade against each other"},
	{wLive, "20 small live clusters (goroutines, channels, wire codec, statestore), each recovered and verified: the only workload where the sim engine does nothing"},
}

// metricDef describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none. Exact marks counts that repeat bit-for-bit on one seed and
// compare exactly across commits.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd lists what a user of the system waits for or pays, on every
// workload. The contract this benchmark is driven by prints every
// end-to-end metric on every run, so only numbers every workload has are
// here; recover_ms_p50/p90, live_msgs_per_s and fail_share — which exist
// on one workload each, or are zero on a healthy run — are reported with
// the per-layer set instead (see README.md).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "events/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func ns(name string) metricDef   { return metricDef{Name: name, Unit: "ns", Better: "lower"} }
func ms(name string) metricDef   { return metricDef{Name: name, Unit: "ms", Better: "lower"} }
func secs(name string) metricDef { return metricDef{Name: name, Unit: "s", Better: "lower"} }
func share(name, better string) metricDef {
	return metricDef{Name: name, Unit: "ratio", Better: better}
}
func rate(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "higher"}
}
func count(name, better string, exact bool) metricDef {
	return metricDef{Name: name, Unit: "count", Better: better, Exact: exact}
}
func bytesOf(name string, exact bool) metricDef {
	return metricDef{Name: name, Unit: "B", Better: "lower", Exact: exact}
}

// perLayer lists the layer metrics, grouped by the package they time from
// outside. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// equeue: hold model (pop one, push one) at fixed depth, plus the
	// calendar's structural counters through the public SetProbe.
	ns("equeue.heap.hold_ns.d32"),
	ns("equeue.heap.hold_ns.d200k"),
	ns("equeue.calendar.hold_ns.d32"),
	ns("equeue.calendar.hold_ns.d200k"),
	count("equeue.calendar.chain_steps_per_pop", "lower", true),
	count("equeue.calendar.sweep_steps_per_pop", "lower", true),
	count("equeue.calendar.resizes", "lower", true),

	// des: self-rescheduling no-op handlers through the public scheduler.
	ns("des.loop_ns_per_event.heap_d32"),
	ns("des.loop_ns_per_event.calendar_d200k"),
	count("des.allocs_per_event", "lower", true),
	ns("des.cancel_reschedule_ns"),
	ns("des.solo_first_schedule_ns_per_emitter.n1e5"),

	ns("rng.exp_ns"),
	ns("rng.bernoulli_ns"),

	ns("mobile.new_ns_per_host.n1e5"),
	ns("mobile.send_receive_ns"),
	count("mobile.send_receive_allocs", "lower", true),
	ns("mobile.switchcell_ns"),
	ns("mobile.disconnect_reconnect_ns"),
	ns("mobile.locate_ns.n1e5"),

	ns("workload.newdriver_ns_per_host.n1e5"),
	ns("workload.start_ns_per_host.n1e5"),
	ns("workload.op_ns"),

	ns("protocol.tp.send_deliver_ns.n10"),
	ns("protocol.tp.send_deliver_ns.n1000"),
	ns("protocol.bcs.send_deliver_ns.n1000"),
	ns("protocol.qbc.send_deliver_ns.n1000"),
	count("protocol.tp.send_deliver_allocs.n1000", "lower", true),
	bytesOf("protocol.tp.piggyback_bytes_per_msg.n1000", false),
	bytesOf("protocol.bcs.piggyback_bytes_per_msg", true),
	share("protocol.tp.snapshot_reuse_share.n1000", "higher"),
	ns("protocol.tp.basic_ckpt_ns.n1000"),
	ns("protocol.qbc.basic_ckpt_ns"),

	ns("vclock.merge_locations_ns.n1000"),
	ns("storage.take_ns"),
	ns("storage.chain_lookup_ns"),

	ns("wire.piggyback_append_ns.index"),
	ns("wire.piggyback_append_ns.tp_n10"),
	ns("wire.piggyback_append_ns.tp_n1000"),
	ns("wire.piggyback_decode_ns.index"),
	ns("wire.piggyback_decode_ns.tp_n10"),
	ns("wire.piggyback_decode_ns.tp_n1000"),
	ns("wire.packet_roundtrip_ns.tp_n10"),
	bytesOf("wire.packet_bytes.tp_n10", true),
	ns("wire.logtransfer_roundtrip_ns_per_record"),

	ns("mlog.append_ns.pessimistic"),
	ns("mlog.append_ns.optimistic"),
	ns("mlog.handoff_ns_per_entry"),
	ns("mlog.replayfrom_ns_per_entry"),

	ns("trace.record_pair_ns"),
	bytesOf("trace.bytes_per_message", false),

	ns("recovery.propagate_ns_per_trace_event"),
	ns("recovery.propagate_replay_ns_per_trace_event"),
	count("recovery.propagate_domino_steps", "lower", true),
	ns("recovery.measure_ns"),
	ns("recovery.collect_garbage_ns_per_record"),

	// sim: the layer peel (L0 engine hold model, L1 protocol-free world,
	// L2 sim.Run) and what one run costs the Go runtime.
	secs("sim.peel.engine_s"),
	secs("sim.peel.world_s"),
	secs("sim.peel.protocol_s"),
	count("sim.peel.events_equal", "higher", true),
	share("sim.peel.unattributed_share", "lower"),
	secs("sim.run_zero_horizon_s"),
	ns("sim.export_json_ns_per_protocol"),
	share("sim.sweep_overhead_share", "lower"),
	bytesOf("sim.alloc_bytes_per_event", false),
	count("sim.num_gc", "lower", false),
	share("sim.gc_cpu_share", "lower"),
	count("sim.probe.global_queue_maxlen", "lower", true),
	share("sim.probe.event_pool_hit_share", "higher"),
	share("sim.probe.message_pool_hit_share", "higher"),

	rate("pdes.sequential.events_per_s", "events/s"),
	rate("pdes.conservative_l1.events_per_s", "events/s"),
	rate("pdes.conservative_l2.events_per_s", "events/s"),
	rate("pdes.timewarp_l1.events_per_s", "events/s"),
	rate("pdes.timewarp_l2.events_per_s", "events/s"),
	count("pdes.conservative_l2.windows", "lower", true),
	share("pdes.l2_speedup", "higher"),

	share("obs.metrics_timeline_overhead_ratio", "lower"),
	share("obs.probes_overhead_ratio", "lower"),
	ns("obs.counter_inc_ns"),
	ns("obs.histogram_observe_ns"),
	ns("obs.timeline_export_ns_per_event"),
	share("check.overhead_ratio", "lower"),

	ms("live.newcluster_ms"),
	ns("live.run_ns_per_op"),
	bytesOf("live.frame_bytes_per_msg", false),
	share("live.dup_share", "lower"),
	ms("live.recover_ms"),
	ms("live.verify_images_ms"),
	share("live.record_overhead_ratio", "lower"),
	bytesOf("live.state_bytes_per_ckpt", false),
	ns("statestore.checkpoint_incremental_ns"),
	ns("statestore.apply_ns"),
	rate("replaycmp.replay_events_per_s", "events/s"),
	ms("replaycmp.compare_ms"),

	share("trace_overhead_share", "lower"),

	// Workload-specific user-visible numbers that cannot be end-to-end
	// metrics under the all-metrics-on-every-run rule. On their own
	// workload they come from the traced rep at full size; elsewhere from
	// the micro suite's fixed scenario of the same shape.
	ms("recover_ms_p50"),
	ms("recover_ms_p90"),
	rate("live_msgs_per_s", "msgs/s"),
	share("fail_share", "lower"),
}

// pdesL2Metrics need two real cores; on a one-core box they are listed as
// unresolved in the ledger instead of being trusted.
var pdesL2Metrics = []string{
	"pdes.conservative_l2.events_per_s", "pdes.timewarp_l2.events_per_s", "pdes.l2_speedup",
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []workloadDef     `json:"workloads"`
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measuring time the driver passes as -seconds: every
// workload runs whole reps until that much time has passed (at least
// one, at most its ledger count).
const runSeconds = 10

func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{m.Name, m.Unit, m.Better, nil})
	}
	return f
}
