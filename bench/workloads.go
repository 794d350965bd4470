package main

import (
	"fmt"
	"runtime"
	"strconv"

	"mobickpt/internal/des"
	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
)

// ledgerReps is how many measured reps the full ledger takes per
// workload; a time-boxed run (-seconds) takes fewer but never less than
// one. tp-1e3 gets more because its reps are short and its allocator
// behaviour is the noisiest thing in the repository.
func ledgerReps(workload string) int {
	switch workload {
	case wTP:
		return 5
	case wScale:
		return 2
	}
	return 3
}

// generate derives a workload's inputs from the seed. All sizing lives
// here; smoke sizes exist so the tier-1 test can run every code path in
// seconds.
func generate(workload string, seed uint64, smoke bool) (Spec, error) {
	sp := Spec{Workload: workload, Seed: seed, Smoke: smoke}
	switch workload {
	case wPaperFigures:
		sp.Sweep = &SweepInput{Horizon: float64(sim.DefaultConfig().Horizon), Seeds: sim.Seeds(seed, 3)}
		if smoke {
			sp.Sweep.Horizon, sp.Sweep.Seeds = 1000, sim.Seeds(seed, 1)
		}
	case wScale:
		sp.Sim = &SimInput{Scale: true, Hosts: 100_000, Horizon: 200, Protocols: []string{"BCS", "QBC"}, Seed: seed}
		if smoke {
			sp.Sim.Hosts, sp.Sim.Horizon = 1000, 50
		}
	case wTP:
		sp.Sim = &SimInput{Scale: true, Hosts: 1000, Horizon: 3000, Protocols: []string{"TP"}, Seed: seed, PComm: 0.3}
		if smoke {
			sp.Sim.Horizon = 50
		}
	case wReplay:
		in := &SimInput{Hosts: 50, Stations: 25, Horizon: 20000, Protocols: []string{"QBC", "UNC", "TP"},
			Seed: seed, PComm: 0.3, PSwitch: 0.8, Replay: true}
		hosts := in.Hosts
		if smoke {
			in.Horizon, hosts = 1000, 5
		}
		for slot := range in.Protocols {
			for h := 0; h < hosts; h++ {
				in.Failures = append(in.Failures, [2]int{slot, h})
			}
		}
		sp.Sim = in
	case wLive:
		in := &LiveInput{OpsPerHost: 20000}
		clusters := 20
		if smoke {
			in.OpsPerHost, clusters = 500, 2
		}
		hosts := live.DefaultConfig().Hosts
		for i := 0; i < clusters; i++ {
			in.Seeds = append(in.Seeds, seed+uint64(i))
			in.Fail = append(in.Fail, i%hosts)
		}
		sp.Live = in
	default:
		return sp, fmt.Errorf("unknown workload %q", workload)
	}
	return sp, nil
}

// peelSpec returns the sim configuration the layer peel runs on: the
// workload's own run where it has one, the single sim.DefaultConfig()
// point for the sweep and for the live cluster (whose reps are not a
// sim.Run the world model could be peeled out of).
func peelSpec(sp Spec) Spec {
	p := Spec{Workload: sp.Workload, Phase: phasePeel, Seed: sp.Seed, Smoke: sp.Smoke, Peel: &PeelInput{}}
	if sp.Sim != nil {
		in := *sp.Sim
		p.Sim = &in
		return p
	}
	def := sim.DefaultConfig()
	in := SimInput{Hosts: def.Mobile.NumHosts, Stations: def.Mobile.NumMSS, Horizon: float64(def.Horizon),
		Protocols: []string{"TP", "BCS", "QBC"}, Seed: sp.Seed}
	if sp.Smoke {
		in.Horizon = 1000
	}
	p.Sim = &in
	p.Peel.WithL2 = true
	return p
}

// zeroHorizon is the run length of a set-up measurement: nothing gets to
// fire, so the call costs what construction and result assembly cost.
const zeroHorizon = 1e-3

// runSetup times the workload's call with nothing to simulate, several
// times while that is cheap: the first call in a fresh process pays for
// faulting the heap in, and the median drops it.
func runSetup(sp Spec, rec *recorder) *Result {
	out := &Result{}
	id := rec.begin(sp.Workload + "/setup")
	defer rec.end(id)
	total := 0.0
	for len(out.SetupS) < 3 || (total < 0.25 && len(out.SetupS) < 200) {
		var err error
		var d float64
		switch {
		case sp.Sweep != nil:
			base := sim.DefaultConfig()
			base.Horizon = zeroHorizon
			d = rec.timed("sim.SweepFigures[zero-horizon]", func() {
				_, err = sim.SweepFigures(sim.PaperFigures(), base, sp.Sweep.Seeds, 1)
			})
		case sp.Sim != nil:
			cfg := sp.Sim.config()
			cfg.Horizon = zeroHorizon
			d = rec.timed("sim.Run[zero-horizon]", func() { _, err = sim.Run(cfg) })
		default:
			out.fail("%s has no separate set-up phase", sp.Workload)
			return out
		}
		out.Attempted++
		if err != nil {
			out.fail("set-up: %v", err)
			return out
		}
		out.SetupS = append(out.SetupS, d)
		total += d
		if d > 1 {
			break // a set-up this long is measured once per process
		}
	}
	return out
}

// runRep executes one measured rep of the workload.
func runRep(sp Spec, rec *recorder) *Result {
	out := &Result{Layer: map[string]float64{}}
	id := rec.begin(sp.Workload + "/rep")
	defer rec.end(id)
	switch {
	case sp.Sweep != nil:
		repSweep(sp, rec, out)
	case sp.Sim != nil:
		repSim(sp, rec, out)
	case sp.Live != nil:
		repLive(sp, rec, out)
	}
	return out
}

// memDelta is what a call cost the Go runtime.
type memDelta struct {
	allocBytes uint64
	numGC      uint32
}

// measureMem runs fn between two readings of the runtime's counters.
func measureMem(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC}
}

// gcCPUShare is the fraction of this process's available CPU the
// collector has used since start; in a fresh child that is the rep's own.
func gcCPUShare() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}

// checkResult verifies the invariants every healthy sim.Result satisfies
// on any seed, so a seed without a golden file is still checked for more
// than "it returned".
func checkResult(res *sim.Result, out *Result) {
	if res.Workload.Sends != res.Network.AppMessages {
		out.fail("workload sent %d messages, network carried %d", res.Workload.Sends, res.Network.AppMessages)
	}
	if res.Network.Delivered > res.Network.AppMessages {
		out.fail("delivered %d of %d messages", res.Network.Delivered, res.Network.AppMessages)
	}
	for i := range res.Protocols {
		p := &res.Protocols[i]
		if p.Ntot != p.Basic+p.Forced {
			out.fail("%s: Ntot %d != basic %d + forced %d", p.Name, p.Ntot, p.Basic, p.Forced)
		}
	}
	if float64(res.Config.Horizon) >= 1 && res.EventsFired == 0 {
		out.fail("no event fired over horizon %v", res.Config.Horizon)
	}
}

// repSim is one sim.Run, followed — for replay-recovery — by one timed
// recovery per listed failure.
func repSim(sp Spec, rec *recorder, out *Result) {
	var cfg sim.Config
	rec.timed("generate", func() {
		cfg = sp.Sim.config()
		cfg.Probes = sp.Traced
	})
	var res *sim.Result
	var err error
	mem := measureMem(func() {
		out.RunS = rec.timed("sim.Run", func() { res, err = sim.Run(cfg) })
	})
	out.Attempted++
	if err != nil {
		out.fail("sim.Run: %v", err)
		return
	}
	out.WallS = out.RunS
	rec.timed("export+check", func() {
		st := statsOf(res)
		out.Stats = &st
		checkResult(res, out)
		if res.EventsFired > 0 {
			out.Layer["sim.alloc_bytes_per_event"] = float64(mem.allocBytes) / float64(res.EventsFired)
		}
		out.Layer["sim.num_gc"] = float64(mem.numGC)
		if p := res.Probes; p != nil {
			probeMetrics(p, out.Layer)
		}
	})
	n := cfg.Mobile.NumHosts
	for _, f := range sp.Sim.Failures {
		pr := &res.Protocols[f[0]]
		d := rec.timed("recover["+string(pr.Name)+"]", func() {
			_, err = sim.AnalyzeReplay(pr, n, mobile.HostID(f[1]), cfg.Horizon)
		})
		out.Attempted++
		if err != nil {
			out.fail("recover host %d under %s: %v", f[1], pr.Name, err)
			continue
		}
		out.OpMs = append(out.OpMs, d*1e3)
		out.WallS += d
	}
	out.Layer["sim.gc_cpu_share"] = gcCPUShare()
	if out.RunS > 0 {
		out.EventsPerS = float64(res.EventsFired) / out.RunS
	}
}

func probeMetrics(p *sim.ProbeReport, layer map[string]float64) {
	layer["sim.probe.global_queue_maxlen"] = float64(p.GlobalQueue.MaxLen)
	if n := p.EventPool.Hits + p.EventPool.Misses; n > 0 {
		layer["sim.probe.event_pool_hit_share"] = float64(p.EventPool.Hits) / float64(n)
	}
	if n := p.MessagePool.Hits + p.MessagePool.Misses; n > 0 {
		layer["sim.probe.message_pool_hit_share"] = float64(p.MessagePool.Hits) / float64(n)
	}
}

// repSweep regenerates the six paper figures the way cmd/figures does.
// The sweep API returns tables, not event counts, so the events are
// counted through Config.Progress: one beat per run, at the horizon,
// reading the engine's own counter (the beat is one more event per run
// and, like every observer, leaves the tables untouched).
func repSweep(sp Spec, rec *recorder, out *Result) {
	in := sp.Sweep
	base := sim.DefaultConfig()
	base.Horizon = des.Time(in.Horizon)
	base.Probes = sp.Traced
	var events uint64
	base.ProgressEvery = base.Horizon
	base.Progress = func(_ des.Time, fired uint64) { events += fired }
	specs := sim.PaperFigures()
	var tabs []*stats.Table
	var err error
	out.WallS = rec.timed("sim.SweepFigures", func() { tabs, err = sim.SweepFigures(specs, base, in.Seeds, 1) })
	out.RunS = out.WallS
	for _, f := range specs {
		out.Attempted += len(f.TSwitch) * len(in.Seeds)
	}
	if err != nil {
		out.fail("sim.SweepFigures: %v", err)
		return
	}
	rec.timed("export+check", func() {
		for i, f := range specs {
			out.Tables = append(out.Tables, TableText{"figure" + strconv.Itoa(f.ID), tabs[i].String(), tabs[i].CSV()})
			if !sp.Smoke {
				checkOrdering(f, tabs[i], out)
			}
		}
		out.Stats = &SimStats{Events: events}
	})
	out.EventsPerS = float64(events) / out.WallS
}

// checkOrdering holds a figure table to the paper's qualitative result at
// the largest T_switch: TP takes more checkpoints than BCS, and QBC no
// more than BCS. It needs the paper's run length to be meaningful, which
// the smoke sizes do not have.
func checkOrdering(f sim.FigureSpec, tab *stats.Table, out *Result) {
	row := tab.NumRows() - 1
	if row < 0 || len(tab.Columns) < 4 {
		out.fail("figure %d: table has no data", f.ID)
		return
	}
	var v [3]float64
	for j := range v {
		x, err := strconv.ParseFloat(tab.Cell(row, j+1), 64)
		if err != nil {
			out.fail("figure %d: cell %q: %v", f.ID, tab.Cell(row, j+1), err)
			return
		}
		v[j] = x
	}
	if tp, bcs, qbc := v[0], v[1], v[2]; !(tp > bcs && bcs >= qbc) {
		out.fail("figure %d at Tswitch=%s: want TP > BCS >= QBC, got %v %v %v", f.ID, tab.Cell(row, 0), tp, bcs, qbc)
	}
}

// repLive runs the clusters one after another. The measured numbers are
// medians over clusters: per-cluster times have a scheduler tail that a
// sum would carry into every run.
func repLive(sp Spec, rec *recorder, out *Result) {
	in := sp.Live
	mk, err := live.Factory("QBC")
	if err != nil {
		out.fail("live.Factory: %v", err)
		return
	}
	var delivered int64
	for i, seed := range in.Seeds {
		cfg := live.DefaultConfig()
		cfg.OpsPerHost = in.OpsPerHost
		cfg.LogMode = mlog.Pessimistic
		cfg.Seed = seed
		out.Attempted++
		var c *live.Cluster
		setup := rec.timed("live.NewCluster", func() { c, err = live.NewCluster(cfg, mk) })
		if err != nil {
			out.fail("live.NewCluster seed %d: %v", seed, err)
			continue
		}
		run := rec.timed("live.Run", c.Run)
		rec.timed("live.Recover", func() { _, err = c.Recover(mobile.HostID(in.Fail[i])) })
		if err != nil {
			out.fail("cluster seed %d: recover host %d: %v", seed, in.Fail[i], err)
			continue
		}
		rec.timed("live.VerifyImages", func() { _, err = c.VerifyImages() })
		if err != nil {
			out.fail("cluster seed %d: verify images: %v", seed, err)
			continue
		}
		if n := c.Counters(); n.Undrained != 0 || n.DecodeErrors != 0 || n.StateErrors != 0 {
			out.fail("cluster seed %d: undrained %d, decode errors %d, state errors %d",
				seed, n.Undrained, n.DecodeErrors, n.StateErrors)
			continue
		}
		delivered += c.Counters().Delivered
		out.SetupS = append(out.SetupS, setup)
		out.OpMs = append(out.OpMs, run*1e3)
	}
	if len(out.OpMs) == 0 {
		return
	}
	out.RunS = median(out.OpMs) / 1e3 * float64(len(out.OpMs))
	out.WallS = out.RunS
	out.EventsPerS = float64(delivered) / out.RunS
}
