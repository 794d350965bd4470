package main

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/sim"
)

// Phases of a workload a child process can be asked to run.
const (
	phaseSetup = "setup" // the workload's call with nothing to simulate
	phaseRep   = "rep"   // one measured rep
	phasePeel  = "peel"  // L0 and L1 of the layer peel (and L2 where the workload has no sim.Run of its own)
	phaseMicro = "micro" // the per-layer micro suite
)

// Spec is one child's whole input. The parent derives it from the
// workload name and -seed; the code under test sees only these values.
type Spec struct {
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	Seed     uint64 `json:"seed"`
	Smoke    bool   `json:"smoke"`
	// Traced turns on span recording in the harness and Config.Probes in
	// the program: the instrumented run the untraced reps are held against.
	Traced bool `json:"traced"`

	Sweep *SweepInput `json:"sweep,omitempty"`
	Sim   *SimInput   `json:"sim,omitempty"`
	Live  *LiveInput  `json:"live,omitempty"`
	Peel  *PeelInput  `json:"peel,omitempty"`
}

// SweepInput is the paper-figures workload: the six-figure sweep.
type SweepInput struct {
	Horizon float64  `json:"horizon"`
	Seeds   []uint64 `json:"seeds"` // replication seeds of every point
}

// SimInput is one sim.Run.
type SimInput struct {
	// Scale selects sim.ScalePoint{Hosts, Horizon, Protocols}.Config(Seed,
	// calendar) as the base; otherwise sim.DefaultConfig() with the fields
	// below overlaid.
	Scale     bool     `json:"scale"`
	Hosts     int      `json:"hosts"`
	Stations  int      `json:"stations,omitempty"`
	Horizon   float64  `json:"horizon"`
	Protocols []string `json:"protocols"`
	Seed      uint64   `json:"seed"`
	PComm     float64  `json:"pcomm,omitempty"`
	PSwitch   float64  `json:"pswitch,omitempty"`
	// Replay makes it the replay-recovery recording run: disconnections of
	// mean TSwitch/2, trace recording and a pessimistic message log.
	Replay bool `json:"replay,omitempty"`
	// Failures lists the (protocol slot, host) pairs to recover from, in
	// order.
	Failures [][2]int `json:"failures,omitempty"`
}

// config assembles the run configuration through the repository's own
// constructors, so the benchmark follows them if they change.
func (in SimInput) config() sim.Config {
	ps := make([]sim.ProtocolName, len(in.Protocols))
	for i, p := range in.Protocols {
		ps[i] = sim.ProtocolName(p)
	}
	var cfg sim.Config
	if in.Scale {
		cfg = sim.ScalePoint{Hosts: in.Hosts, Horizon: des.Time(in.Horizon), Protocols: ps}.Config(in.Seed, des.QueueCalendar)
	} else {
		cfg = sim.DefaultConfig()
		cfg.Mobile.NumHosts = in.Hosts
		cfg.Mobile.NumMSS = in.Stations
		cfg.Horizon = des.Time(in.Horizon)
		cfg.Seed = in.Seed
		cfg.Protocols = ps
	}
	if in.PComm > 0 {
		cfg.Workload.PComm = in.PComm
	}
	if in.PSwitch > 0 {
		cfg.Workload.PSwitch = in.PSwitch
	}
	if in.Replay {
		cfg.Workload.DisconnectMean = cfg.Workload.TSwitch / 2
		cfg.RecordTrace = true
		cfg.MessageLog = mlog.Pessimistic
	}
	return cfg
}

// LiveInput is the live-cluster workload: consecutive small clusters,
// each recovered from one failure and verified.
type LiveInput struct {
	OpsPerHost int      `json:"ops_per_host"`
	Seeds      []uint64 `json:"seeds"` // one cluster per seed
	Fail       []int    `json:"fail"`  // failed host per cluster
}

// PeelInput sizes the engine-only level of the peel: a hold model with
// the run's event count and pending-set depth.
type PeelInput struct {
	Events uint64 `json:"events"`
	// WithL2 also runs sim.Run in the peel child, for workloads whose reps
	// are not a single sim.Run.
	WithL2 bool `json:"with_l2"`
}

// SimStats are the simulated statistics of a run: deterministic under
// (config, seed), so they compare exactly against the golden files and
// across commits. Piggyback bytes are reported, not gated.
type SimStats struct {
	Events    uint64       `json:"events"`
	Messages  int64        `json:"messages"`
	Protocols []ProtoStats `json:"protocols"`
}

type ProtoStats struct {
	Name           string `json:"name"`
	Ntot           int64  `json:"ntot"`
	Basic          int64  `json:"basic"`
	Forced         int64  `json:"forced"`
	PiggybackBytes int64  `json:"piggyback_bytes"`
}

func statsOf(res *sim.Result) SimStats {
	s := SimStats{Events: res.EventsFired, Messages: res.Network.AppMessages}
	for i := range res.Protocols {
		p := &res.Protocols[i]
		s.Protocols = append(s.Protocols, ProtoStats{string(p.Name), p.Ntot, p.Basic, p.Forced, p.PiggybackBytes})
	}
	return s
}

// gated reports whether the statistics the correctness gate compares are
// equal (everything but piggyback bytes).
func (s SimStats) gated(o SimStats) bool {
	if s.Events != o.Events || s.Messages != o.Messages || len(s.Protocols) != len(o.Protocols) {
		return false
	}
	for i, p := range s.Protocols {
		q := o.Protocols[i]
		if p.Name != q.Name || p.Ntot != q.Ntot || p.Basic != q.Basic || p.Forced != q.Forced {
			return false
		}
	}
	return true
}

// TableText is one figure table in both committed renderings.
type TableText struct {
	Name string `json:"name"`
	Txt  string `json:"txt"`
	CSV  string `json:"csv"`
}

// Result is one child's whole output.
type Result struct {
	// WallS is the measured section; RunS the part of it that fires events
	// (equal for a single sim.Run).
	WallS float64 `json:"wall_s"`
	RunS  float64 `json:"run_s"`
	// EventsPerS is the workload's event rate over RunS: DES events for the
	// sim workloads, delivered application messages for live-cluster.
	EventsPerS float64 `json:"events_per_s"`
	// SetupS holds set-up samples: the zero-horizon call (setup phase) or
	// live.NewCluster (live reps).
	SetupS []float64 `json:"setup_s,omitempty"`
	// OpMs holds per-operation times: recoveries for replay-recovery,
	// cluster Run() for live-cluster.
	OpMs  []float64 `json:"op_ms,omitempty"`
	RSSMB float64   `json:"rss_mb"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	Stats  *SimStats   `json:"stats,omitempty"`
	Tables []TableText `json:"tables,omitempty"`

	// Layer carries per-layer metrics measured in this child.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []Span             `json:"spans,omitempty"`
}

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}
