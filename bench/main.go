// Command bench is the repository's benchmark: five named workloads, an
// end-to-end and a per-layer ledger, and a layer-peel trace. Run it from
// the repository root:
//
//	go run ./bench                         # the whole ledger, every workload
//	go run ./bench -workload tp-1e3        # one workload
//	go run ./bench -workload tp-1e3 -seed 7 -seconds 10 -trace 0
//	                                       # what the driver runs: end-to-end metrics only
//	go run ./bench -workload tp-1e3 -trace 1   # the traced run only: per-layer metrics
//	go run ./bench -repeat                 # everything twice, differences against the bounds
//
// README.md in this directory explains every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// Trace modes of the -trace flag.
const (
	traceOff  = 0 // end-to-end metrics from untraced reps
	traceOnly = 1 // the traced run: per-layer metrics
	traceBoth = 2 // the whole ledger
)

var (
	errIncorrect = errors.New("the correctness gate failed")
	errUnsteady  = errors.New("two sets of runs of the same build differ by more than the bounds allow")
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run (comma-separated, or all)")
		seed     = fs.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = fs.Float64("seconds", 0, "measuring time per workload; 0 runs the ledger's rep counts")
		trace    = fs.Int("trace", traceBoth, "0: end-to-end metrics only; 1: traced run (per-layer metrics) only; 2: both")
		repeat   = fs.Bool("repeat", false, "run the set twice and hold the differences against the bounds")
		smoke    = fs.Bool("smoke", false, "tiny sizes, one rep, no child processes")
		sha      = fs.String("sha", "", "git revision to stamp the output with (default: the build's vcs.revision)")
		outDir   = fs.String("out", filepath.Join("bench", "out"), "directory for ledger.json, trace.json and layers.json")
		update   = fs.String("update-golden", "", "write the observed simulated outcomes as golden files into this directory")
		child    = fs.Bool("child", false, "internal: run one spec from stdin")
		printDef = fs.Bool("benchmark-json", false, "print BENCHMARK.json as defined by this package and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case *child:
		return childMain()
	case *printDef:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(benchmarkJSON())
	}
	if *trace < traceOff || *trace > traceBoth {
		return fmt.Errorf("-trace %d: want 0, 1 or 2", *trace)
	}
	names, err := workloadNames(*workload)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := &runOpts{
		seed: *seed, seconds: *seconds,
		endToEnd: *trace != traceOnly, layers: *trace != traceOff,
		smoke: *smoke, exec: spawner(ctx), golden: embeddedGolden, log: stdout,
	}
	if *smoke {
		o.exec = inProcess
	}

	stamp := machineStamp(*sha)
	printStamp(stdout, stamp)
	first := o.measureAll(names)
	sets := [][]*Report{first}
	printLedger(stdout, first)
	failed, steady := anyFailed(first), true
	if *repeat {
		second := o.measureAll(names)
		sets = append(sets, second)
		printLedger(stdout, second)
		failed = failed || anyFailed(second)
		steady = printRepeat(stdout, first, second)
	}
	if err := writeOutputs(*outDir, stamp, sets); err != nil {
		return err
	}
	if *update != "" {
		for _, r := range first {
			if r.Observed != nil {
				if err := writeGolden(*update, r.Observed); err != nil {
					return err
				}
			}
		}
	}
	// Last lines: one JSON object per workload, in the driver's format.
	for _, r := range first {
		if err := json.NewEncoder(stdout).Encode(resultLine(r, *trace, len(names) > 1)); err != nil {
			return err
		}
	}
	switch {
	case failed:
		return errIncorrect
	case !steady:
		return errUnsteady
	}
	return nil
}

func workloadNames(arg string) ([]string, error) {
	if arg == "all" {
		names := make([]string, len(workloadDefs))
		for i, w := range workloadDefs {
			names[i] = w.Name
		}
		return names, nil
	}
	names := strings.Split(arg, ",")
	for _, n := range names {
		known := false
		for _, w := range workloadDefs {
			known = known || w.Name == n
		}
		if !known {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return names, nil
}

func (o *runOpts) measureAll(names []string) []*Report {
	var out []*Report
	for _, n := range names {
		t0 := time.Now()
		r := o.measure(n)
		fmt.Fprintf(o.log, "# %s: measured in %.1fs\n", n, time.Since(t0).Seconds())
		out = append(out, r)
	}
	return out
}

func anyFailed(reps []*Report) bool {
	for _, r := range reps {
		if r.Failed > 0 {
			return true
		}
	}
	return false
}

// resultLine is the object the driver reads from the last line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one (both when the whole ledger ran).
func resultLine(r *Report, trace int, named bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace != traceOnly {
		for _, m := range endToEnd {
			if s, ok := r.EndToEnd[m.Name]; ok {
				metrics[m.Name] = value{s.Median, m.Unit}
			}
		}
	}
	if trace != traceOff {
		for _, m := range perLayer {
			if v, ok := r.Layer[m.Name]; ok {
				metrics[m.Name] = value{v, m.Unit}
			}
		}
	}
	line := map[string]any{
		"correct":   r.Failed == 0,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	}
	if named {
		line["workload"] = r.Workload
	}
	return line
}

func printStamp(w io.Writer, s Stamp) {
	fmt.Fprintf(w, "# %s %s/%s, %s, nproc %d, child GOMAXPROCS %d, load %.2f, git %s\n",
		s.GoVersion, s.GOOS, s.GOARCH, s.CPU, s.NumCPU, s.GOMAXPROCS, s.LoadAvg1, s.GitSHA)
	for _, warn := range s.warnings() {
		fmt.Fprintln(w, "# WARNING:", warn)
	}
}

func printLedger(w io.Writer, reps []*Report) {
	unresolved := map[string]bool{}
	if childProcs() < 2 {
		for _, n := range pdesL2Metrics {
			unresolved[n] = true
		}
	}
	for _, r := range reps {
		fmt.Fprintf(w, "\n== %s (seed %d): %d operations, %d failed\n", r.Workload, r.Seed, r.Attempted, r.Failed)
		for _, p := range r.Problems {
			fmt.Fprintln(w, "   FAIL:", p)
		}
		row := func(m metricDef, s Sample, bound string) {
			fmt.Fprintf(w, "   %-18s %14.6g %-5s (%s is better%s)  min %.6g  max %.6g  n=%d\n",
				m.Name, s.Median, m.Unit, m.Better, bound, s.Min, s.Max, s.N)
		}
		for _, m := range endToEnd {
			if s, ok := r.EndToEnd[m.Name]; ok {
				row(m, s, fmt.Sprintf(", bound %.0f%%", m.Bound*100))
			}
		}
		for _, m := range perLayer {
			if s, ok := r.Extra[m.Name]; ok {
				row(m, s, "")
			}
		}
		if r.EndToEnd != nil {
			fmt.Fprintf(w, "   %-18s %14.6g %-5s (lower is better, bound 0)\n", "fail_share",
				float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
		}
		if r.Layer == nil {
			continue
		}
		fmt.Fprintln(w, "   -- per layer (traced run)")
		for _, m := range perLayer {
			v, ok := r.Layer[m.Name]
			if !ok {
				continue
			}
			note := ""
			if m.Exact {
				note = "  [exact]"
			}
			if unresolved[m.Name] {
				note += "  [unresolved: one core]"
			}
			fmt.Fprintf(w, "   %-52s %14.6g %s%s\n", m.Name, v, m.Unit, note)
		}
	}
}

// printRepeat compares two sets of runs of the same build: both medians
// of every end-to-end metric, their relative difference and the bound.
// It reports false when a difference exceeds its bound or an exact count
// differs at all.
func printRepeat(w io.Writer, first, second []*Report) bool {
	ok := true
	fmt.Fprintln(w, "\n== repeatability: two sets of runs of the same build")
	for i, a := range first {
		b := second[i]
		for _, m := range endToEnd {
			sa, okA := a.EndToEnd[m.Name]
			sb, okB := b.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			d := relWorse(sa.Median, sb.Median, m.Better)
			verdict := "ok"
			if d > m.Bound || -d > m.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "   %-16s %-14s %12.6g %12.6g  %+6.1f%%  bound %.0f%%  %s\n",
				a.Workload, m.Name, sa.Median, sb.Median, d*100, m.Bound*100, verdict)
		}
		for _, m := range perLayer {
			va, okA := a.Layer[m.Name]
			vb, okB := b.Layer[m.Name]
			if m.Exact && okA && okB && va != vb {
				ok = false
				fmt.Fprintf(w, "   %-16s %-44s exact count differs: %v vs %v\n", a.Workload, m.Name, va, vb)
			}
		}
	}
	return ok
}

// writeOutputs leaves the machine-readable ledger, and for a traced run
// the spans and per-layer self times, in dir.
func writeOutputs(dir string, stamp Stamp, sets [][]*Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, v any) error {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
	}
	if err := write("ledger.json", map[string]any{
		"stamp": stamp, "warnings": stamp.warnings(), "sets": sets,
	}); err != nil {
		return err
	}
	var spans []Span
	type layers struct {
		Workload string             `json:"workload"`
		Self     []layerTime        `json:"self_time"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	var perWorkload []layers
	for _, r := range sets[0] {
		if r.Layer == nil {
			continue
		}
		spans = mergeSpans(spans, r.Spans, 3*len(perWorkload)) // three traced children per workload
		perWorkload = append(perWorkload, layers{r.Workload, selfTimes(r.Spans), r.Layer})
	}
	if perWorkload == nil {
		return nil
	}
	raw, err := chromeTrace(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), raw, 0o644); err != nil {
		return err
	}
	return write("layers.json", map[string]any{"stamp": stamp, "workloads": perWorkload})
}
