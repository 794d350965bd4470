package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"mobickpt/internal/des"
	"mobickpt/internal/pdes"
)

// This file holds E21 (DESIGN.md §7): the scale sweep from 10 hosts to a
// million. Where E14 asks how the *protocols* scale in n at paper-sized
// worlds, E21 asks whether one *run* scales — flat-array host state, the
// calendar event queue and TP's O(1) vector views are the
// mechanisms under test — and plots N_tot rate, piggyback volume,
// events/sec and peak memory along the way. The headline is TP's
// vector-piggyback blow-up: its per-message control information grows
// linearly in n (and its world state quadratically), so it rides along
// only up to ScaleTPMaxHosts while the index protocols continue to 1e6.
//
// Wall-clock seconds and peak RSS are *host* measurements, not simulated
// ones; the deterministic core never reads clocks (simlint's detlint
// enforces that), so those fields are filled in by the caller
// (cmd/figures -scale) and stay zero when unmeasured.

// ScalePoint is one host count of E21's sweep: the horizon keeps the
// total event volume roughly constant across points, and the protocol
// set shrinks once TP's O(n²) world no longer fits a sensible budget.
type ScalePoint struct {
	Hosts     int
	Horizon   des.Time
	Protocols []ProtocolName
}

const (
	// scaleEventBudget is the per-run event-volume target; horizons are
	// derived as budget/hosts so every point costs about the same wall
	// time regardless of n.
	scaleEventBudget = 2e7
	// scaleMinHorizon keeps the largest worlds running long enough for
	// mobility (and therefore checkpoints) to happen at all.
	scaleMinHorizon = 50
	// ScaleTPMaxHosts caps TP's participation: each TP piggyback carries
	// two n-entry vectors, so at 10^4 hosts a single message hauls
	// ~160 kB of control state, and every host holds its dense current
	// CKPT vector as n 32-bit entries — 4n² B in all, 0.4 GB at 10^4 and
	// 40 GB at 10^5 (LOC is looked up in per-host station tables).
	// That blow-up is E21's headline finding, measured where it is
	// affordable and extrapolated (linearly, by construction) beyond.
	ScaleTPMaxHosts = 10000
)

// ScalePoints returns the E21 sweep in decades from 10 to maxHosts
// (inclusive when maxHosts is a power of ten times ten).
func ScalePoints(maxHosts int) []ScalePoint {
	var pts []ScalePoint
	for n := 10; n <= maxHosts; n *= 10 {
		h := des.Time(scaleEventBudget / float64(n))
		if h < scaleMinHorizon {
			h = scaleMinHorizon
		}
		ps := []ProtocolName{TP, BCS, QBC}
		if n > ScaleTPMaxHosts {
			ps = []ProtocolName{BCS, QBC}
		}
		pts = append(pts, ScalePoint{Hosts: n, Horizon: h, Protocols: ps})
	}
	return pts
}

// Config assembles the run configuration for one point. Stations scale
// with the hosts (two hosts per cell, as in E14); T_switch is lowered to
// 100 so the scaled-down horizons still see hand-offs, which is what
// makes N_tot rates comparable across points. The queue parameter sets
// Config.Queue and stays only because bench/ passes one; it goes with
// that field (ROADMAP item 1).
func (p ScalePoint) Config(seed uint64, queue des.QueueKind) Config {
	cfg := DefaultConfig()
	cfg.Mobile.NumHosts = p.Hosts
	cfg.Mobile.NumMSS = (p.Hosts + 1) / 2
	cfg.Workload.TSwitch = 100
	cfg.Workload.PSwitch = 0.8
	cfg.Horizon = p.Horizon
	cfg.Seed = seed
	cfg.Protocols = p.Protocols
	cfg.Queue = queue
	return cfg
}

// ScaleMeasurement is one row of results/BENCH_scale.json. The
// simulation-derived fields are deterministic under (hosts, seed);
// WallSeconds, EventsPerSec and PeakRSSBytes are measured by the caller.
// Queue names the event queue the run used, always the calendar.
type ScaleMeasurement struct {
	Hosts   int     `json:"hosts"`
	Queue   string  `json:"queue"`
	Horizon float64 `json:"horizon"`
	Events  uint64  `json:"events"`

	// NtotRate is checkpoints per host per 1000 time units; PiggybackPerMsg
	// is control bytes per application message. Keyed by protocol name —
	// TP's linear growth against BCS/QBC's flat line is the E21 headline.
	NtotRate        map[string]float64 `json:"ntot_rate"`
	PiggybackPerMsg map[string]float64 `json:"piggyback_b_per_msg"`

	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`

	// PDES is what the parallel engine reported of the run (lanes,
	// windows); nil when the sequential engine made it. Not part of the
	// JSON: no deterministic field depends on the engine.
	PDES *pdes.StatsSnapshot `json:"-"`
}

// MeasureScale runs one E21 point on the given engine (lanes as in
// Config.Lanes) and fills the deterministic fields.
func MeasureScale(p ScalePoint, seed uint64, engine pdes.Mode, lanes int) (*ScaleMeasurement, error) {
	cfg := p.Config(seed, des.QueueCalendar)
	cfg.Engine, cfg.Lanes = engine, lanes
	res, err := Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: scale point n=%d: %w", p.Hosts, err)
	}
	m := &ScaleMeasurement{
		Hosts:           p.Hosts,
		Queue:           cfg.Queue.String(),
		Horizon:         float64(p.Horizon),
		Events:          res.EventsFired,
		PDES:            res.PDES,
		NtotRate:        make(map[string]float64, len(res.Protocols)),
		PiggybackPerMsg: make(map[string]float64, len(res.Protocols)),
	}
	msgs := float64(res.Network.AppMessages)
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		m.NtotRate[string(pr.Name)] = float64(pr.Ntot) / float64(p.Hosts) / float64(p.Horizon) * 1000
		if msgs > 0 {
			m.PiggybackPerMsg[string(pr.Name)] = float64(pr.PiggybackBytes) / msgs
		}
	}
	return m, nil
}

// WriteScaleJSON emits the sweep as indented JSON (the exact format of
// results/BENCH_scale.json). encoding/json sorts map keys, so the output
// is byte-stable for fixed measurements.
func WriteScaleJSON(w io.Writer, ms []*ScaleMeasurement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}
