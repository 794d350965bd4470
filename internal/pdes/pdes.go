// Package pdes runs the repo's closure-based world model in parallel over
// the engine in internal/des: the pending-event set is sharded into P
// lanes (logical processes), each with its own equeue-backed event queue
// and local virtual time.
//
// The world's handlers are irreversible (they mutate protocol state,
// pools and counters in ways no snapshot covers), so Core runs the lanes
// risk-free: an event executes only once the cross-lane message
// lookahead proves no earlier event can still arrive, no executed event
// is ever wrong, and nothing is rolled back. Mode selects between a
// barrier-windowed conservative driver and an asynchronous bounded-lag
// driver whose lanes free-run below the other lanes' published
// frontiers.
//
// Each lane's queue is ordered by (time, key) where key encodes
// (emitter, per-emitter ordinal), so the execution order is a pure
// function of the event population — independent of goroutine timing —
// and a parallel run is bit-identical to the sequential engine.
package pdes

import (
	"fmt"
	"sync/atomic"
)

// Mode selects the synchronization protocol of a parallel run.
type Mode int

const (
	// ModeSequential is the null mode: no lanes, the caller runs the
	// ordinary des.Simulator loop.
	ModeSequential Mode = iota
	// ModeConservative runs fixed-lookahead windows with a barrier
	// between windows: every lane executes only events provably beyond
	// the reach of any in-flight cross-lane message.
	ModeConservative
	// ModeTimeWarp runs the asynchronous bounded-lag driver: lanes
	// free-run below the frontier the other lanes publish, with no
	// barrier and — the world being irreversible — no rollback.
	ModeTimeWarp
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeConservative:
		return "conservative"
	case ModeTimeWarp:
		return "timewarp"
	default:
		return "sequential"
	}
}

// ParseMode maps a flag spelling to a Mode. The empty string selects
// sequential execution.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sequential", "seq":
		return ModeSequential, nil
	case "conservative":
		return ModeConservative, nil
	case "timewarp", "optimistic":
		return ModeTimeWarp, nil
	default:
		return ModeSequential, fmt.Errorf("pdes: unknown engine %q (want sequential, conservative or timewarp)", s)
	}
}

// Stats is the run-level accounting of a parallel execution. Counters
// are atomics because lanes update them concurrently; read them after
// Run returns (or through Snapshot for a consistent copy).
type Stats struct {
	Lanes int
	Mode  Mode

	// Processed counts lane events executed (every one is final).
	Processed atomic.Uint64

	// GVTRounds counts the bounded-lag coordinator's frontier samples;
	// GVTLagMax is the largest observed gap between the fastest lane and
	// that frontier (in virtual time units, as float64 bits).
	GVTRounds atomic.Uint64
	gvtLagMax atomic.Uint64

	// Conservative-driver shape: windows executed, serialized
	// single-steps (the window collapsed onto a shared-state write),
	// and global-timeline events run between windows.
	Windows      atomic.Uint64
	SerialSteps  atomic.Uint64
	WriteFences  atomic.Uint64
	GlobalEvents atomic.Uint64
}

// GVTLagMax returns the largest observed lane-to-frontier gap.
func (s *Stats) GVTLagMax() float64 { return fromBits(s.gvtLagMax.Load()) }

// observeLag folds one gap observation into the running max. Only the
// coordinator calls it; the atomic is for concurrent gauge readers.
func (s *Stats) observeLag(lag float64) {
	if lag > s.GVTLagMax() {
		s.gvtLagMax.Store(toBits(lag))
	}
}

// StatsSnapshot is a plain-value copy of Stats for reporting.
type StatsSnapshot struct {
	Lanes        int     `json:"lanes"`
	Mode         string  `json:"mode"`
	Processed    uint64  `json:"processed"`
	GVTRounds    uint64  `json:"gvt_rounds"`
	GVTLagMax    float64 `json:"gvt_lag_max"`
	Windows      uint64  `json:"windows"`
	SerialSteps  uint64  `json:"serial_steps"`
	WriteFences  uint64  `json:"write_fences"`
	GlobalEvents uint64  `json:"global_events"`
}

// Snapshot returns a consistent plain copy of the stats.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Lanes:        s.Lanes,
		Mode:         s.Mode.String(),
		Processed:    s.Processed.Load(),
		GVTRounds:    s.GVTRounds.Load(),
		GVTLagMax:    s.GVTLagMax(),
		Windows:      s.Windows.Load(),
		SerialSteps:  s.SerialSteps.Load(),
		WriteFences:  s.WriteFences.Load(),
		GlobalEvents: s.GlobalEvents.Load(),
	}
}
