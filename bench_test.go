// Package mobickpt_test holds the top-level benchmark harness: one
// benchmark per figure of the paper (E1..E6), the headline-gain and
// overhead experiments (E7, E9), the recovery extension (E8), and the
// ablation benches called out in DESIGN.md §5.
//
// Benchmarks run at a reduced horizon (20,000 time units, single seed) so
// `go test -bench=.` completes in minutes; `cmd/figures` regenerates the
// full-scale tables (100,000 tu, multiple seeds). The reported custom
// metrics are the scientific outputs: checkpoint counts and gains.
package mobickpt_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/recovery"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
	"mobickpt/internal/storage"
)

// benchBase is the scaled-down configuration shared by the figure
// benches.
func benchBase() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Horizon = 20000
	return cfg
}

// runFigure sweeps one figure at bench scale and reports the headline
// metrics: N_tot of each protocol at the largest T_switch and the gain
// of the best index protocol over TP there.
func runFigure(b *testing.B, id int) {
	spec, err := sim.Figure(id)
	if err != nil {
		b.Fatal(err)
	}
	base := benchBase()
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		for _, ts := range spec.TSwitch {
			res, err := sim.Run(spec.Apply(base, ts))
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
	}
	tp := float64(last.Protocol(sim.TP).Ntot)
	bcs := float64(last.Protocol(sim.BCS).Ntot)
	qbc := float64(last.Protocol(sim.QBC).Ntot)
	b.ReportMetric(tp, "TP_Ntot@10000")
	b.ReportMetric(bcs, "BCS_Ntot@10000")
	b.ReportMetric(qbc, "QBC_Ntot@10000")
	best := bcs
	if qbc < best {
		best = qbc
	}
	b.ReportMetric(stats.Gain(tp, best)*100, "%gain_index_over_TP")
	b.ReportMetric(stats.Gain(bcs, qbc)*100, "%gain_QBC_over_BCS")
}

func BenchmarkFigure1(b *testing.B) { runFigure(b, 1) }
func BenchmarkFigure2(b *testing.B) { runFigure(b, 2) }
func BenchmarkFigure3(b *testing.B) { runFigure(b, 3) }
func BenchmarkFigure4(b *testing.B) { runFigure(b, 4) }
func BenchmarkFigure5(b *testing.B) { runFigure(b, 5) }
func BenchmarkFigure6(b *testing.B) { runFigure(b, 6) }

// BenchmarkGains is E7 at bench scale: the maxima the paper headlines.
func BenchmarkGains(b *testing.B) {
	base := benchBase()
	var rep sim.GainReport
	for i := 0; i < b.N; i++ {
		spec, _ := sim.Figure(6) // H=30%, Pswitch=0.8: the paper's QBC showcase
		var err error
		rep, err = sim.Gains(spec, base, sim.Seeds(1, 1), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.TPOverIndexMax*100, "%max_gain_index_over_TP")
	b.ReportMetric(rep.QBCOverBCSMax*100, "%max_gain_QBC_over_BCS")
}

// BenchmarkOverhead is E9: all six protocols (including the coordinated
// baselines of §2) on one trace, reporting energy and control volume.
func BenchmarkOverhead(b *testing.B) {
	cfg := benchBase()
	cfg.Protocols = sim.AllProtocols()
	cfg.Workload.PSwitch = 0.8
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Protocol(sim.TP).PiggybackBytes), "TP_piggyback_B")
	b.ReportMetric(float64(last.Protocol(sim.BCS).PiggybackBytes), "BCS_piggyback_B")
	b.ReportMetric(float64(last.Protocol(sim.CL).CtrlMessages), "CL_ctrl_msgs")
	b.ReportMetric(float64(last.Protocol(sim.PS).CtrlMessages), "PS_ctrl_msgs")
	b.ReportMetric(last.Protocol(sim.TP).Energy.MHEnergy, "TP_energy")
	b.ReportMetric(last.Protocol(sim.QBC).Energy.MHEnergy, "QBC_energy")
}

// BenchmarkRecovery is E8: failure injection and rollback measurement,
// including the domino cascade of the uncoordinated baseline.
func BenchmarkRecovery(b *testing.B) {
	cfg := benchBase()
	cfg.Horizon = 10000
	cfg.Workload.PSwitch = 0.8
	cfg.Protocols = []sim.ProtocolName{sim.QBC, sim.UNC}
	cfg.RecordTrace = true
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := cfg.Mobile.NumHosts
	var qbcUndone, uncUndone float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range res.Protocols {
			var seed recovery.Cut
			if pr.Name == sim.QBC {
				seed = recovery.LatestIndexCut(pr.Store, n, 0)
			} else {
				seed = recovery.FailureCut(pr.Store, n, 0)
			}
			cut, steps := recovery.Propagate(pr.Trace, seed)
			m := recovery.Measure(pr.Trace, cut,
				func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) },
				cfg.Horizon, steps)
			if pr.Name == sim.QBC {
				qbcUndone = float64(m.UndoneTime)
			} else {
				uncUndone = float64(m.UndoneTime)
			}
		}
	}
	b.ReportMetric(qbcUndone, "QBC_undone_time")
	b.ReportMetric(uncUndone, "UNC_undone_time")
}

// BenchmarkReplayRecovery is E18 at bench scale: the same failure as E8,
// but the MSSs keep pessimistic message logs and rolled-back hosts
// replay their logged deliveries. The custom metrics contrast classic
// orphan elimination with replay-aware recovery on the identical trace.
func BenchmarkReplayRecovery(b *testing.B) {
	cfg := benchBase()
	cfg.Horizon = 10000
	cfg.Workload.PSwitch = 0.8
	cfg.Workload.PComm = 0.3
	cfg.Workload.DisconnectMean = cfg.Workload.TSwitch / 2
	cfg.Protocols = []sim.ProtocolName{sim.QBC, sim.UNC}
	cfg.RecordTrace = true
	cfg.MessageLog = mlog.Pessimistic
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := cfg.Mobile.NumHosts
	outs := make(map[sim.ProtocolName]sim.ReplayOutcome, len(res.Protocols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range res.Protocols {
			pr := &res.Protocols[j]
			out, err := sim.AnalyzeReplay(pr, n, 0, cfg.Horizon)
			if err != nil {
				b.Fatal(err)
			}
			outs[pr.Name] = out
		}
	}
	unc, qbc := outs[sim.UNC], outs[sim.QBC]
	b.ReportMetric(float64(unc.Plain.UndoneTime), "UNC_undone_plain")
	b.ReportMetric(float64(unc.Replay.UndoneTime), "UNC_undone_replay")
	b.ReportMetric(float64(unc.Replay.ReplayedMessages), "UNC_replayed_msgs")
	b.ReportMetric(float64(qbc.Plain.UndoneTime), "QBC_undone_plain")
	b.ReportMetric(float64(qbc.Replay.UndoneTime), "QBC_undone_replay")
}

// BenchmarkAblationQBCRule quantifies QBC's equivalence rule: with the
// rule, basic checkpoints reuse indices (replacements > 0) and forced
// checkpoints drop versus BCS, which is exactly QBC with the rule
// disabled.
func BenchmarkAblationQBCRule(b *testing.B) {
	cfg := benchBase()
	cfg.Workload.PSwitch = 0.8
	cfg.Workload.Heterogeneity = 0.3
	var bcs, qbc float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bcs = float64(res.Protocol(sim.BCS).Forced)
		qbc = float64(res.Protocol(sim.QBC).Forced)
	}
	b.ReportMetric(bcs, "forced_without_rule(BCS)")
	b.ReportMetric(qbc, "forced_with_rule(QBC)")
	b.ReportMetric(stats.Gain(bcs, qbc)*100, "%forced_saved")
}

// BenchmarkAblationSharedTrace compares the engine's single-pass
// multi-protocol evaluation against per-protocol re-simulation: same
// results (asserted), roughly one third of the substrate work.
func BenchmarkAblationSharedTrace(b *testing.B) {
	cfg := benchBase()
	b.Run("joint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solo-x3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range sim.PaperProtocols() {
				c := cfg
				c.Protocols = []sim.ProtocolName{p}
				if _, err := sim.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationIncremental compares the incremental checkpointing
// technique of §2.2 against full-state transfer: the wireless volume
// saved is the battery/bandwidth argument of the paper.
func BenchmarkAblationIncremental(b *testing.B) {
	run := func(incremental bool) storage.Counters {
		cfg := benchBase()
		cfg.Protocols = []sim.ProtocolName{sim.QBC}
		cfg.Cost.Incremental = incremental
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Protocols[0].Storage
	}
	var inc, full storage.Counters
	for i := 0; i < b.N; i++ {
		inc = run(true)
		full = run(false)
	}
	b.ReportMetric(float64(inc.WirelessUnits), "wireless_units_incremental")
	b.ReportMetric(float64(full.WirelessUnits), "wireless_units_full")
	b.ReportMetric(float64(inc.WiredUnits), "wired_fetch_units_incremental")
}

// BenchmarkObsOverhead prices the observability layer on the hot
// simulation path. The "disabled" variant runs with Config.Metrics and
// Config.Timeline nil — the no-op path every production sweep takes, with
// a < 2% budget versus the pre-observability engine (baseline recorded in
// results/BENCH_obs.json). The "enabled" variant carries a full metrics
// registry and timeline recorder and quantifies what -metrics -timeline
// actually cost. Both variants simulate identical traces; the reported
// Ntot must match across them (observation never perturbs the run).
func BenchmarkObsOverhead(b *testing.B) {
	cfg := benchBase()
	cfg.Workload.PSwitch = 0.8
	if testing.Short() {
		cfg.Horizon = 2000 // smoke scale for `make check`
	}
	var plain, observed *sim.Result
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			plain = res
		}
		b.ReportMetric(float64(plain.EventsFired), "events/run")
	})
	b.Run("enabled", func(b *testing.B) {
		var events int
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Metrics = obs.NewRegistry()
			c.Timeline = obs.NewTimeline()
			res, err := sim.Run(c)
			if err != nil {
				b.Fatal(err)
			}
			observed = res
			events = c.Timeline.Len()
		}
		b.ReportMetric(float64(events), "timeline_events/run")
	})
	// The engine-internals probes alone (no metrics registry, no
	// timeline): the single-flag instrumentation of queue, pools and
	// lanes that -probes enables. Its budget is the same as disabled —
	// the counters are plain single-writer increments behind nil checks.
	var probed *sim.Result
	b.Run("probes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Probes = true
			res, err := sim.Run(c)
			if err != nil {
				b.Fatal(err)
			}
			probed = res
		}
		if probed.Probes != nil {
			b.ReportMetric(float64(probed.Probes.GlobalQueue.Pushes), "queue_pushes/run")
			b.ReportMetric(float64(probed.Probes.EventPool.Hits), "pool_hits/run")
		}
	})
	for _, other := range []*sim.Result{observed, probed} {
		if plain == nil || other == nil {
			continue
		}
		for i := range plain.Protocols {
			p, o := &plain.Protocols[i], &other.Protocols[i]
			if p.Ntot != o.Ntot || p.Forced != o.Forced {
				b.Fatalf("%s: observation perturbed the run: Ntot %d vs %d, forced %d vs %d",
					p.Name, p.Ntot, o.Ntot, p.Forced, o.Forced)
			}
		}
	}
	// The single-instrument cost underneath it all: one observation into
	// a wide (64-bucket) histogram. Allocations are reported so a
	// regression from the inlined bucket search back to an allocating
	// path is visible in the numbers (0 allocs/op is the contract; the
	// hard gate is TestHistogramObserveZeroAlloc in internal/obs).
	b.Run("histogram-wide", func(b *testing.B) {
		bounds := make([]float64, 64)
		for i := range bounds {
			bounds[i] = float64(uint64(1) << i)
		}
		h := obs.NewRegistry().Histogram("bench_wide", bounds)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i))
		}
	})
}

// pdesBenchRow is one row of results/BENCH_pdes.json: a (hosts, engine,
// lanes) cell of BenchmarkPDES's sweep. Rollback and efficiency fields
// stay zero on sequential rows.
type pdesBenchRow struct {
	Hosts        int     `json:"hosts"`
	Engine       string  `json:"engine"`
	Lanes        int     `json:"lanes"`
	Horizon      float64 `json:"horizon"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	Processed    uint64  `json:"pdes_processed,omitempty"`
	Rollbacks    uint64  `json:"pdes_rollbacks"`
	RollbackRate float64 `json:"pdes_rollback_rate"`
	Efficiency   float64 `json:"pdes_efficiency,omitempty"`
	Windows      uint64  `json:"pdes_windows,omitempty"`
}

// pdesBenchDoc is the whole committed artifact, with enough machine
// context to interpret the numbers.
type pdesBenchDoc struct {
	Benchmark string         `json:"benchmark"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	NumCPU    int            `json:"num_cpu"`
	Notes     string         `json:"notes"`
	Rows      []pdesBenchRow `json:"rows"`
}

// BenchmarkPDES sweeps the execution engines over host counts spanning
// three decades (1e4..1e6; -short keeps only the smallest) in the E21
// scale environment: QBC+BCS on the calendar queue, horizons shrunk
// with n so every cell simulates a comparable event volume. Reported
// metrics are events/sec, commit efficiency and rollback rate; with
// BENCH_PDES_OUT set (make bench-pdes) the sweep is also written as
// JSON. The engines are bit-identical by construction (asserted in
// internal/sim's equivalence tests), so the only thing measured here is
// speed — see the notes field of results/BENCH_pdes.json for what a
// single-CPU machine can and cannot show about lane scaling.
func BenchmarkPDES(b *testing.B) {
	hostCounts := []int{10_000, 100_000, 1_000_000}
	if testing.Short() {
		hostCounts = hostCounts[:1]
	}
	engines := []struct {
		name  string
		mode  pdes.Mode
		lanes int
	}{
		{"sequential", pdes.ModeSequential, 0},
		{"conservative-1", pdes.ModeConservative, 1},
		{"conservative-2", pdes.ModeConservative, 2},
		{"conservative-4", pdes.ModeConservative, 4},
		{"timewarp-1", pdes.ModeTimeWarp, 1},
		{"timewarp-2", pdes.ModeTimeWarp, 2},
		{"timewarp-4", pdes.ModeTimeWarp, 4},
	}
	var rows []pdesBenchRow
	for _, n := range hostCounts {
		// Event volume ~constant per cell: horizon = budget/n, floored at
		// the mobility horizon the scale sweep uses (hand-offs need time
		// to happen at all).
		horizon := des.Time(6e6 / float64(n))
		if horizon < 20 {
			horizon = 20
		}
		if testing.Short() {
			horizon /= 10
		}
		pt := sim.ScalePoint{Hosts: n, Horizon: horizon,
			Protocols: []sim.ProtocolName{sim.BCS, sim.QBC}}
		for _, e := range engines {
			b.Run(fmt.Sprintf("n=%d/%s", n, e.name), func(b *testing.B) {
				cfg := pt.Config(1, des.QueueCalendar)
				cfg.Engine, cfg.Lanes = e.mode, e.lanes
				var res *sim.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = sim.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				wall := b.Elapsed().Seconds() / float64(b.N)
				row := pdesBenchRow{
					Hosts: n, Engine: e.mode.String(), Lanes: e.lanes,
					Horizon: float64(horizon), Events: res.EventsFired,
					WallSeconds:  wall,
					EventsPerSec: float64(res.EventsFired) / wall,
				}
				b.ReportMetric(row.EventsPerSec, "events/s")
				if st := res.PDES; st != nil {
					row.Processed = st.Processed
					row.Rollbacks = st.Rollbacks
					row.Efficiency = st.Efficiency
					row.Windows = st.Windows
					if st.Processed > 0 {
						row.RollbackRate = float64(st.Rollbacks) / float64(st.Processed)
					}
					b.ReportMetric(st.Efficiency, "efficiency")
					b.ReportMetric(row.RollbackRate, "rollbacks/event")
				}
				rows = append(rows, row)
			})
		}
	}
	out := os.Getenv("BENCH_PDES_OUT")
	if out == "" {
		return
	}
	doc := pdesBenchDoc{
		Benchmark: "BenchmarkPDES",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Notes: "Engine throughput sweep in the E21 scale environment (QBC+BCS, " +
			"calendar queue, horizon = 6e6/n floored at 20). The engines are " +
			"bit-identical; only wall clock differs. Efficiency is " +
			"committed/processed; the sim world is irreversible, so both " +
			"parallel engines run risk-free (rollback rate 0 by design — " +
			"rollback machinery is exercised in internal/pdes's own tests). " +
			"On a single-CPU machine (num_cpu=1) lane goroutines cannot run " +
			"concurrently, so monotonic lane scaling (1 -> 2 -> 4) is " +
			"physically impossible; re-run on a many-core box for real " +
			"speedup curves. A lane count that beats sequential on one CPU " +
			"is not parallelism and needs a measured cause before it is " +
			"called locality (EXPERIMENTS E22: the first such reading was a " +
			"quadratic set-up cost in the sequential scheduling surface). " +
			"Regenerate with: make bench-pdes",
		Rows: rows,
	}
	f, err := os.Create(out)
	if err != nil {
		b.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		f.Close()
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s (%d rows)", out, len(rows))
}

// BenchmarkEngine measures the raw DES throughput of a full run
// (events per second across workload, network and three protocols).
func BenchmarkEngine(b *testing.B) {
	cfg := benchBase()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.EventsFired
	}
	b.ReportMetric(float64(events), "events/run")
}

// TestHeadlineGains is the E7 acceptance check at full paper scale: the
// qualitative claims of §5.2 must hold. It is skipped in -short mode
// (it simulates several full 100,000-tu runs).
func TestHeadlineGains(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep; run without -short")
	}
	base := sim.DefaultConfig()
	base.Horizon = 100000

	// Homogeneous, no disconnections (Figure 1): the index protocols beat
	// TP by a wide margin at large T_switch.
	f1, _ := sim.Figure(1)
	f1.TSwitch = []float64{10000}
	rep, err := sim.Gains(f1, base, sim.Seeds(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TPOverIndexMax < 0.80 {
		t.Fatalf("index-over-TP gain %.1f%%, paper reports ~90%%", rep.TPOverIndexMax*100)
	}

	// Heterogeneous with disconnections (Figure 6): QBC's showcase.
	f6, _ := sim.Figure(6)
	rep, err = sim.Gains(f6, base, sim.Seeds(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QBCOverBCSMax < 0.08 {
		t.Fatalf("QBC-over-BCS gain %.1f%%, paper reports up to 23%%", rep.QBCOverBCSMax*100)
	}
}

// TestReplicationSpread mirrors the paper's "results were within 4% of
// each other" observation across seeds (full scale; skipped in -short).
func TestReplicationSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale replication; run without -short")
	}
	cfg := sim.DefaultConfig()
	cfg.Horizon = 100000
	sum, err := sim.Replicate(cfg, sim.Seeds(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports spreads < 4% with its (higher) communication
	// rate; at our calibrated rate the index protocols' counts hinge on
	// rarer propagation chains, so relative variance is larger. Assert a
	// still-tight envelope on both the range and the mean's confidence.
	for _, p := range sum.Protocols {
		if s := p.Ntot.RelSpread(); s > 0.40 {
			t.Fatalf("%s: spread %.1f%% across seeds", p.Name, s*100)
		}
		if ci := p.Ntot.CI95() / p.Ntot.Mean(); ci > 0.15 {
			t.Fatalf("%s: relative CI95 %.1f%%", p.Name, ci*100)
		}
	}
}
