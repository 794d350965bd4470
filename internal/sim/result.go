package sim

import (
	"mobickpt/internal/energy"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// ProtocolResult holds one protocol's outcome over the run.
type ProtocolResult struct {
	Name ProtocolName

	// Ntot is the paper's measured quantity: basic + forced checkpoints
	// (the initial checkpoints, identical across protocols, are reported
	// separately).
	Ntot    int64
	Initial int64
	Basic   int64
	Forced  int64

	// PiggybackBytes is the control-information volume piggybacked on
	// application messages; CtrlMessages counts coordination markers
	// (zero for communication-induced protocols).
	PiggybackBytes int64
	CtrlMessages   int64

	// JoinCtrlMessages is the number of control messages dynamic joins
	// cost this protocol (zero for the index-based protocols, O(n) per
	// join for TP).
	JoinCtrlMessages int64

	// PeakLiveRecords is the largest number of unreclaimed checkpoints on
	// stable storage at any GC tick (only sampled when Config.GCInterval
	// is set; the paper's point (a): MSS storage is a managed resource).
	PeakLiveRecords int
	// GCReclaimedRecords is the total number of checkpoints pruned by
	// periodic garbage collection.
	GCReclaimedRecords int

	// Storage aggregates stable-storage transfer activity.
	Storage storage.Counters
	// Energy is the derived battery/channel cost (E9).
	Energy energy.Report

	// Log aggregates MSS message-logging activity (zero value unless
	// Config.MessageLog enabled logging).
	Log mlog.Counters

	// Causes breaks the checkpoints down by trigger (E19): keys are
	// "initial", "basic-switch", "basic-disconnect", "basic-marker",
	// "basic-other" and "forced". The non-initial values sum to Ntot.
	Causes map[string]int64

	// Store and Trace expose the raw material for recovery analysis.
	// Trace is nil unless Config.RecordTrace was set; MLog is nil unless
	// Config.MessageLog enabled logging.
	Store *storage.Store
	Trace *trace.Trace
	MLog  *mlog.Log

	// Instance is the live protocol state machine (e.g. *protocol.TP for
	// vector metadata); nil after deserialization.
	Instance protocol.Protocol
}

// Result is the outcome of one run.
type Result struct {
	Config    Config
	Network   mobile.Counters
	Workload  workload.Counters
	Protocols []ProtocolResult
	// FinalHosts is the host count at the horizon (it exceeds
	// Config.Mobile.NumHosts when JoinTimes admitted new hosts).
	FinalHosts int
	// EventsFired is the number of DES events executed (engine load):
	// queued events fired, plus operations executed in line
	// (des.Sched.Inline), each counted as the event it would have been.
	// For parallel runs it sums the lane events and the global-timeline
	// events, which matches the sequential count exactly.
	EventsFired uint64
	// PDES reports the parallel engine's run statistics (lane count,
	// windows, serialized steps); nil for sequential runs. It is
	// deliberately excluded from ExportJSON so exports stay byte-identical
	// across engines.
	PDES *pdes.StatsSnapshot
	// Probes is the engine-internals report (nil unless Config.Probes).
	// ExportJSON includes it under "probes" when present; like PDES it is
	// engine-dependent, so cross-engine export comparisons either run
	// probe-free or strip the field.
	Probes *ProbeReport
	// Decisions is the replayed protocol-decision log (nil unless
	// Config.Schedule put the run in replay mode). Hold it against the
	// recording side with replaycmp.Compare. Excluded from ExportJSON —
	// the bundle format (replaycmp.Bundle) is the interchange surface.
	Decisions *replaycmp.Log
}

// ProbeReport aggregates the run's engine-internals probes (see
// internal/obs/probe): the global simulator's pending-event-set and event
// pool, the message pool merged across lanes, and — for parallel engines
// — the per-lane execution and queue internals.
type ProbeReport struct {
	Engine      string             `json:"engine"`
	Lanes       int                `json:"lanes"`
	GlobalQueue probe.QueueProbe   `json:"global_queue"`
	EventPool   probe.PoolProbe    `json:"event_pool"`
	MessagePool probe.PoolProbe    `json:"message_pool"`
	LaneProbes  []probe.LaneProbe  `json:"lane_probes,omitempty"`
	LaneQueues  []probe.QueueProbe `json:"lane_queues,omitempty"`
}

// Protocol returns the result for the named protocol, or nil.
func (r *Result) Protocol(name ProtocolName) *ProtocolResult {
	for i := range r.Protocols {
		if r.Protocols[i].Name == name {
			return &r.Protocols[i]
		}
	}
	return nil
}

// result assembles the Result of a finished run from the world's
// counters and each slot's outcome.
func (e *engine) result() *Result {
	fired := e.sim.Fired()
	if e.core != nil {
		fired += e.core.Fired()
	}
	res := &Result{
		Config:      e.cfg,
		Network:     e.net.Counters(),
		Workload:    e.driver.Counters(),
		FinalHosts:  e.net.NumHosts(),
		EventsFired: fired,
	}
	if e.core != nil {
		snap := e.core.Stats().Snapshot()
		res.PDES = &snap
	}
	if e.cfg.Probes {
		res.Probes = e.probeReport()
	}
	model := energy.DefaultModel()
	for i := range e.Slots {
		pr := protocolResult(e.Side, i)
		pr.Energy = energy.Assess(model, res.Network, pr.Storage, pr.PiggybackBytes)
		res.Protocols = append(res.Protocols, pr)
	}
	return res
}

// protocolResult assembles slot i's outcome from its store and tallies.
// Energy, which needs a network model's counters, is the caller's.
func protocolResult(p *protoside.Side, i int) ProtocolResult {
	s := &p.Slots[i]
	initial, basic, forced := s.Store.CountByKind(-1)
	pr := ProtocolResult{
		Name:               ProtocolName(s.Name),
		Ntot:               int64(basic + forced),
		Initial:            int64(initial),
		Basic:              int64(basic),
		Forced:             int64(forced),
		PiggybackBytes:     s.Proto.PiggybackBytes(),
		JoinCtrlMessages:   s.JoinCtrl,
		PeakLiveRecords:    s.PeakLive,
		GCReclaimedRecords: s.GCReclaimed,
		Storage:            s.Store.Counters(),
		Causes:             p.Causes(i),
		Store:              s.Store,
		Trace:              s.Trace,
		MLog:               s.MLog,
		Instance:           s.Proto,
	}
	if s.MLog != nil {
		pr.Log = s.MLog.Counters()
	}
	if init, ok := s.Proto.(protocol.Initiator); ok {
		pr.CtrlMessages = init.ControlMessages()
	}
	return pr
}

// probeReport assembles Result.Probes from the quiesced probe cells.
// Only called after the lanes have joined (run's tail), so the plain
// reads are ordered by the goroutine join.
func (e *engine) probeReport() *ProbeReport {
	r := &ProbeReport{
		Engine:      e.cfg.Engine.String(),
		Lanes:       e.lanes,
		GlobalQueue: e.simQueue,
		EventPool:   e.simPool,
	}
	for i := range e.msgProbe {
		r.MessagePool.Merge(e.msgProbe[i])
	}
	if e.coreProbe != nil {
		r.LaneProbes = e.coreProbe.Lanes
		r.LaneQueues = e.coreProbe.Queues
	}
	return r
}
