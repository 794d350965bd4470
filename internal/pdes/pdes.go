// Package pdes runs the repo's closure-based world model in parallel over
// the engine in internal/des: the pending-event set is sharded into P
// lanes (logical processes), each with its own calendar queue and local
// virtual time.
//
// The world's handlers are irreversible (they mutate protocol state,
// pools and counters in ways no snapshot covers), so Core runs the lanes
// risk-free: an event executes only once the cross-lane message
// lookahead proves no earlier event can still arrive, no executed event
// is ever wrong, and nothing is rolled back. Core is a barrier-windowed
// conservative driver: lanes execute in parallel below a common window
// bound, cross-lane arrivals wait in mailboxes until the barrier, and
// shared-state writes run one at a time on the coordinator.
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

// Mode selects the engine of a run.
type Mode int

const (
	// ModeSequential is the null mode: no lanes, the caller runs the
	// ordinary des.Simulator loop.
	ModeSequential Mode = iota
	// ModeConservative runs fixed-lookahead windows with a barrier
	// between windows: every lane executes only events provably beyond
	// the reach of any in-flight cross-lane message.
	ModeConservative
)

// ModeTimeWarp names the conservative driver.
//
// Deprecated: the bounded-lag driver it selected is gone. The name stays
// only because bench/micro.go's two pdes.timewarp_* ledger rows name it;
// those rows now time the conservative driver. It goes when the benchmark
// drops them (ROADMAP item 1).
const ModeTimeWarp = ModeConservative

// String returns the mode's flag spelling.
func (m Mode) String() string {
	if m == ModeConservative {
		return "conservative"
	}
	return "sequential"
}

// ParseMode maps a flag spelling to a Mode. The empty string selects
// sequential execution.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sequential", "seq":
		return ModeSequential, nil
	case "conservative":
		return ModeConservative, nil
	default:
		return ModeSequential, fmt.Errorf("pdes: unknown engine %q (want sequential or conservative)", s)
	}
}

// Stats is the run-level accounting of a parallel execution. The
// counters are atomics so gauges may sample them; read them after Run
// returns (or through Snapshot for a plain copy).
type Stats struct {
	Lanes int

	// Processed counts lane events executed (every one is final).
	Processed atomic.Uint64

	// The driver's shape: windows executed, serialized single-steps (the
	// window collapsed onto a shared-state write), and global-timeline
	// events run between windows.
	Windows      atomic.Uint64
	SerialSteps  atomic.Uint64
	GlobalEvents atomic.Uint64
}

// StatsSnapshot is a plain-value copy of Stats for reporting.
type StatsSnapshot struct {
	Lanes        int    `json:"lanes"`
	Processed    uint64 `json:"processed"`
	Windows      uint64 `json:"windows"`
	SerialSteps  uint64 `json:"serial_steps"`
	GlobalEvents uint64 `json:"global_events"`
}

// Snapshot returns a plain copy of the stats.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Lanes:        s.Lanes,
		Processed:    s.Processed.Load(),
		Windows:      s.Windows.Load(),
		SerialSteps:  s.SerialSteps.Load(),
		GlobalEvents: s.GlobalEvents.Load(),
	}
}
