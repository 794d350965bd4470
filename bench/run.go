package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mobickpt/internal/sim"
)

// runOpts is what one pass over a set of workloads needs.
type runOpts struct {
	seed    uint64
	seconds float64 // measuring time per workload; 0 = the ledger's rep counts
	// ends says which halves of the ledger to produce: the end-to-end
	// metrics from untraced reps, the per-layer metrics from the traced
	// run, or both.
	endToEnd, layers bool
	smoke            bool
	exec             func(Spec) (*Result, error)
	golden           goldenSource
	log              io.Writer
}

// Report is everything measured for one workload.
type Report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	EndToEnd map[string]Sample `json:"end_to_end,omitempty"`
	// Extra holds the user-visible numbers only this workload has
	// (recover_ms_p50/p90, live_msgs_per_s), from the untraced reps.
	Extra     map[string]Sample  `json:"extra,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Spans     []Span             `json:"-"`
	// Observed is the first rep's simulated outcome, in golden form.
	Observed *Golden `json:"-"`
}

func (r *Report) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// absorb folds a child's operation counts and complaints into the report.
func (r *Report) absorb(res *Result) {
	r.Attempted += res.Attempted
	r.Failed += res.Failed
	r.Problems = append(r.Problems, res.Problems...)
}

// child runs one spec and folds the outcome into the report; ok is false
// when the child could not be run or measured nothing usable.
func (o *runOpts) child(rep *Report, sp Spec) (*Result, bool) {
	res, err := o.exec(sp)
	if err != nil {
		rep.fail("%v", err)
		return nil, false
	}
	rep.absorb(res)
	return res, res.Failed == 0
}

// measure runs one workload and returns its report.
//
// Rep i draws its inputs from seed i of sim.Seeds(seed, reps): the
// simulated work of tp-1e3 and replay-recovery moves by several percent
// from one seed to the next (few hosts, long disconnections), and a
// median over reps of different seeds is steadier against the choice of
// -seed than the same seed five times. Rep 0 uses -seed itself; set-up
// samples and the traced run use rep 0's inputs.
func (o *runOpts) measure(workload string) *Report {
	rep := &Report{Workload: workload, Seed: o.seed}
	// The traced run needs one clean rep to be held against; the
	// end-to-end metrics need the ledger's full count.
	nSetup, nReps := 1, 1
	if o.endToEnd {
		nSetup, nReps = 3, ledgerReps(workload)
	}
	if o.smoke {
		nSetup, nReps = 1, 1
	}
	var specs []Spec
	for _, seed := range sim.Seeds(o.seed, nReps) {
		sp, err := generate(workload, seed, o.smoke)
		if err != nil {
			rep.fail("%v", err)
			return rep
		}
		specs = append(specs, sp)
	}
	setups := o.setupSamples(rep, specs[0], nSetup)
	reps := o.measuredReps(rep, specs)
	if len(reps) == 0 {
		return rep
	}
	if o.endToEnd {
		o.endToEndMetrics(rep, specs[0], reps, setups)
	}
	for i, r := range reps {
		o.gate(rep, specs[i], r)
	}
	first := reps[0]
	rep.Observed = &Golden{Workload: workload, Seed: o.seed, Smoke: o.smoke, Stats: first.Stats, Tables: first.Tables}
	if o.layers {
		o.tracedRun(rep, specs[0], first, setups)
	}
	return rep
}

// setupSamples measures set-up time in up to n children of their own, so
// no sample can be helped by a heap an earlier call warmed. Each child
// reports the median of its calls. A time-boxed run stops early once the
// samples have used up the box; the live cluster measures set-up inside
// its reps (one NewCluster per cluster) and takes none here.
func (o *runOpts) setupSamples(rep *Report, sp Spec, n int) []float64 {
	if sp.Live != nil {
		return nil
	}
	sp.Phase = phaseSetup
	var out []float64
	start := time.Now()
	for i := 0; i < n; i++ {
		res, ok := o.child(rep, sp)
		if !ok {
			break
		}
		out = append(out, median(res.SetupS))
		if o.seconds > 0 && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	return out
}

// measuredReps runs the untraced reps, one fresh child each, in a
// time-boxed run only until the box is used up.
func (o *runOpts) measuredReps(rep *Report, specs []Spec) []*Result {
	var out []*Result
	start := time.Now()
	for _, sp := range specs {
		sp.Phase = phaseRep
		res, ok := o.child(rep, sp)
		if !ok {
			break
		}
		out = append(out, res)
		if o.seconds > 0 && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	return out
}

func (o *runOpts) endToEndMetrics(rep *Report, sp Spec, reps []*Result, setups []float64) {
	var wall, rate, rss, recP50, recP90 []float64
	for _, r := range reps {
		wall = append(wall, r.WallS)
		rate = append(rate, r.EventsPerS)
		rss = append(rss, r.RSSMB)
		if sp.Live != nil {
			setups = append(setups, median(r.SetupS))
		}
		if sp.Sim != nil && len(r.OpMs) > 0 { // timed recoveries
			recP50 = append(recP50, median(r.OpMs))
			recP90 = append(recP90, tail(r.OpMs, 0.9))
		}
	}
	rep.EndToEnd = map[string]Sample{
		"wall_s":       summarize(wall),
		"setup_s":      summarize(setups),
		"events_per_s": summarize(rate),
		"peak_rss_mb":  summarize(rss),
	}
	rep.Extra = map[string]Sample{}
	if len(recP50) > 0 {
		rep.Extra["recover_ms_p50"] = summarize(recP50)
		rep.Extra["recover_ms_p90"] = summarize(recP90)
	}
	if sp.Live != nil {
		rep.Extra["live_msgs_per_s"] = summarize(rate)
	}
}

// gate is the correctness gate for one rep: on a seed with a committed
// golden file the simulated outcome must equal it. (Every rep has already
// checked its own invariants and, at full size, the paper's ordering; on
// seeds without a golden file the traced run repeats rep 0 and the two
// must agree.) A miss is a failed operation.
func (o *runOpts) gate(rep *Report, sp Spec, r *Result) {
	want, ok, err := o.golden(sp.Workload, sp.Smoke, sp.Seed)
	if err != nil {
		rep.fail("%v", err)
	}
	if !ok {
		return
	}
	rep.Attempted++
	for _, d := range want.diff(r) {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("%s seed %d against the committed golden outcome: %s", sp.Workload, sp.Seed, d))
	}
}

// tracedRun produces the per-layer half of the ledger: one instrumented
// rep (harness spans plus the program's own probe counters) held against
// the clean rep of the same seed, then the layer peel and the micro suite.
func (o *runOpts) tracedRun(rep *Report, sp Spec, clean *Result, setups []float64) {
	layer := map[string]float64{}
	rep.Layer = layer

	traced := sp
	traced.Phase, traced.Traced = phaseRep, true
	tr, ok := o.child(rep, traced)
	if !ok {
		return
	}
	rep.Spans = mergeSpans(rep.Spans, tr.Spans, 1)
	layer["trace_overhead_share"] = tr.WallS/clean.WallS - 1
	// Two runs of one seed must simulate the same thing.
	rep.Attempted++
	same := &Golden{Stats: clean.Stats, Tables: clean.Tables}
	for _, d := range same.diff(tr) {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("%s seed %d, traced rep against clean rep: %s", sp.Workload, sp.Seed, d))
	}

	peel := peelSpec(sp)
	peel.Traced = true
	if clean.Stats != nil {
		peel.Peel.Events = clean.Stats.Events
	}
	pr, ok := o.child(rep, peel)
	if !ok {
		return
	}
	rep.Spans = mergeSpans(rep.Spans, pr.Spans, 2)

	micro := Spec{Workload: sp.Workload, Phase: phaseMicro, Seed: sp.Seed, Smoke: sp.Smoke, Traced: true}
	mr, ok := o.child(rep, micro)
	if !ok {
		return
	}
	rep.Spans = mergeSpans(rep.Spans, mr.Spans, 3)
	for k, v := range mr.Layer {
		layer[k] = v
	}

	// The run-level numbers come from the workload's own sim.Run where it
	// has one — runtime cost from the clean rep, probe counters from the
	// traced rep of the same seed — and from the peel child's run of the
	// default point where it has none.
	l2, stats := pr.RunS, pr.Stats
	if sp.Sim != nil {
		l2, stats = clean.RunS, clean.Stats
		copyPrefix(layer, clean.Layer, "sim.")
		copyPrefix(layer, tr.Layer, "sim.probe.")
		layer["sim.run_zero_horizon_s"] = median(setups)
	} else {
		copyPrefix(layer, pr.Layer, "sim.")
	}
	if stats != nil {
		peelMetrics(pr.Layer["peel.l0_s"], pr.Layer["peel.l1_s"], l2,
			uint64(pr.Layer["peel.l1_events"]), int64(pr.Layer["peel.l1_messages"]), *stats, layer)
	}

	// On the workload that owns them, the user-visible numbers come from
	// the traced rep at full size instead of the micro suite's scenario.
	switch {
	case sp.Sim != nil && len(tr.OpMs) > 0:
		layer["recover_ms_p50"] = median(tr.OpMs)
		layer["recover_ms_p90"] = tail(tr.OpMs, 0.9)
	case sp.Live != nil:
		layer["live_msgs_per_s"] = tr.EventsPerS
	}
	if rep.Attempted > 0 {
		layer["fail_share"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	for _, m := range perLayer {
		if v, ok := layer[m.Name]; !ok {
			rep.fail("per-layer metric %s was not measured", m.Name)
		} else if !finite(v) {
			rep.fail("per-layer metric %s is not finite: %v", m.Name, v)
		}
	}
}

// copyPrefix copies the entries of src whose key starts with prefix.
func copyPrefix(dst, src map[string]float64, prefix string) {
	for k, v := range src {
		if strings.HasPrefix(k, prefix) {
			dst[k] = v
		}
	}
}
