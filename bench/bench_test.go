package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// smokeRun measures every workload once at smoke sizes — end-to-end reps,
// traced run, peel and micro suite, all in this process — and shares the
// reports between the tests below.
var smokeRun = sync.OnceValue(func() []*Report {
	o := &runOpts{seed: 1, endToEnd: true, layers: true, smoke: true,
		exec: inProcess, golden: embeddedGolden, log: io.Discard}
	names, _ := workloadNames("all")
	return o.measureAll(names)
})

func TestSmokeIsCorrect(t *testing.T) {
	for _, r := range smokeRun() {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.Problems)
		}
		if got := r.Layer["sim.peel.events_equal"]; got != 1 {
			t.Errorf("%s: sim.peel.events_equal = %v: the protocol-free world fired other events than sim.Run", r.Workload, got)
		}
	}
}

// Every metric BENCHMARK.json names is printed once per workload with a
// finite value, and nothing else is.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	names := func(defs []metricDef) []string {
		var out []string
		for _, m := range defs {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, r := range smokeRun() {
		for _, c := range []struct {
			trace int
			want  []string
		}{
			{traceOff, names(endToEnd)},
			{traceOnly, names(perLayer)},
		} {
			raw, err := json.Marshal(resultLine(r, c.trace, false))
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line has other keys than the contract's: %v", r.Workload, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
				t.Errorf("%s: result line lacks correct/attempted/failed: %s", r.Workload, raw)
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q breaks the grammar", r.Workload, name)
				}
				if v.Value == nil || !finite(*v.Value) || v.Unit == "" {
					t.Errorf("%s: metric %s has no finite value and unit", r.Workload, name)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s, -trace %d: emitted metrics differ from the declared ones:\n got %v\nwant %v", r.Workload, c.trace, got, c.want)
			}
		}
		for _, m := range endToEnd {
			if r.EndToEnd[m.Name].Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, m.Name, r.EndToEnd[m.Name].Median)
			}
		}
	}
}

func TestSpanTreeIsWellFormed(t *testing.T) {
	for _, r := range smokeRun() {
		byID := map[int]Span{}
		roots := map[int]int{}
		for _, s := range r.Spans {
			if _, dup := byID[s.ID]; dup {
				t.Fatalf("%s: span id %d used twice", r.Workload, s.ID)
			}
			byID[s.ID] = s
		}
		for _, s := range r.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %q ends before it starts", r.Workload, s.Name)
			}
			if s.Parent == 0 {
				roots[s.Rep]++
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("%s: span %q has no parent %d", r.Workload, s.Name, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End || s.Rep != p.Rep {
				t.Errorf("%s: span %q is not inside its parent %q", r.Workload, s.Name, p.Name)
			}
		}
		if len(roots) != 3 { // traced rep, peel, micro suite
			t.Errorf("%s: %d traced children, want 3", r.Workload, len(roots))
		}
		for rep, n := range roots {
			if n != 1 {
				t.Errorf("%s: rep %d has %d root spans, want 1", r.Workload, rep, n)
			}
		}
		for _, lt := range selfTimes(r.Spans) {
			if lt.SelfS < 0 || lt.SelfS > lt.TotalS {
				t.Errorf("%s: span %q has self time %v of %v", r.Workload, lt.Name, lt.SelfS, lt.TotalS)
			}
		}
		if _, err := chromeTrace(r.Spans); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
	}
}

// The gate must be able to fail: a golden outcome that is off by one
// event fails the run.
func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	corrupted := func(workload string, smoke bool, seed uint64) (*Golden, bool, error) {
		g, ok, err := embeddedGolden(workload, smoke, seed)
		if ok && g.Stats != nil {
			g.Stats.Events++
		}
		return g, ok, err
	}
	o := &runOpts{seed: 1, endToEnd: true, smoke: true, exec: inProcess, golden: corrupted, log: io.Discard}
	r := o.measure(wScale)
	if r.Failed == 0 {
		t.Fatal("a corrupted golden file went unnoticed")
	}
	if line := resultLine(r, traceOff, false); line["correct"] != false {
		t.Fatalf("result line reports correct=%v after a golden mismatch", line["correct"])
	}
}

// The one command, as the driver invokes it.
func TestCommandLine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-smoke", "--workload", wTP, "--seed", "1", "--seconds", "1", "--trace", "0", "-out", t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("last line has keys %v, want %v", keys, want)
	}
	if err := run([]string{"-workload", "no-such"}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func repoFile(t *testing.T, elem ...string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(append([]string{".."}, elem...)...))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// BENCHMARK.json is this package's metric table, serialised, within the
// limits of the contract it is written to.
func TestBenchmarkJSONMatchesThePackage(t *testing.T) {
	var committed, want any
	if err := json.Unmarshal(repoFile(t, "BENCHMARK.json"), &committed); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, want) {
		t.Fatal("BENCHMARK.json differs from the package's tables; regenerate it with: go run ./bench -benchmark-json > BENCHMARK.json")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(endToEnd) > 16 {
		t.Errorf("end-to-end metrics: setup_s present %v, %d metrics", hasSetup, len(endToEnd))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// The golden files are tied to the repository's committed results: seed 1
// of paper-figures is results/figure{1..6}.{txt,csv} byte for byte, and
// seed 1 of scale-1e5 is the n=1e5 row of results/BENCH_scale.json.
func TestGoldenFilesMatchCommittedResults(t *testing.T) {
	g, ok, err := embeddedGolden(wPaperFigures, false, 1)
	if err != nil || !ok {
		t.Fatalf("no golden outcome for %s seed 1: %v", wPaperFigures, err)
	}
	if len(g.Tables) != 6 {
		t.Fatalf("%d golden tables, want 6", len(g.Tables))
	}
	for _, tab := range g.Tables {
		if tab.Txt != string(repoFile(t, "results", tab.Name+".txt")) {
			t.Errorf("%s: golden text differs from results/%s.txt", tab.Name, tab.Name)
		}
		if tab.CSV != string(repoFile(t, "results", tab.Name+".csv")) {
			t.Errorf("%s: golden CSV differs from results/%s.csv", tab.Name, tab.Name)
		}
	}

	g, ok, err = embeddedGolden(wScale, false, 1)
	if err != nil || !ok {
		t.Fatalf("no golden outcome for %s seed 1: %v", wScale, err)
	}
	var rows []struct {
		Hosts  int    `json:"hosts"`
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(repoFile(t, "results", "BENCH_scale.json"), &rows); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range rows {
		if row.Hosts == 100_000 {
			found = true
			if row.Events != g.Stats.Events {
				t.Errorf("golden scale-1e5 fired %d events, results/BENCH_scale.json records %d", g.Stats.Events, row.Events)
			}
		}
	}
	if !found {
		t.Error("results/BENCH_scale.json has no n=1e5 row")
	}
	for _, w := range []string{wPaperFigures, wScale, wTP, wReplay} {
		for _, seed := range []uint64{1, 2} {
			if _, ok, err := embeddedGolden(w, false, seed); err != nil || !ok {
				t.Errorf("no golden outcome for %s seed %d: %v", w, seed, err)
			}
		}
	}
}
