// Package cmd holds the end-to-end checks of the figures, recovery and
// mhsim commands: the flag values no run may start from, table selection,
// a replay with its instruments on, and a bundle no replay may start from.
package cmd

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/obs"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
	"mobickpt/internal/trace"
)

// build compiles the commands into a temp dir and returns a
// function that runs one of them: stdout, stderr and the exit code.
func build(t *testing.T) func(cmd string, args ...string) (string, string, int) {
	t.Helper()
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+"/", "./figures", "./recovery", "./mhsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(cmd string, args ...string) (string, string, int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		c := exec.Command(filepath.Join(dir, cmd), args...)
		c.Stdout, c.Stderr = &stdout, &stderr
		code := 0
		if err := c.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%s %v: %v", cmd, args, err)
			}
			code = ee.ExitCode()
		}
		return stdout.String(), stderr.String(), code
	}
}

// TestSeedsBelowOneRejected: `-seeds 0` once printed an all-zero table
// with exit 0 (and with -out overwrote the committed pair), `-seeds -1`
// panicked in sim.Seeds, and mhsim ran one seed for either, audit or not.
// All are usage errors naming the flag, before any run starts.
func TestSeedsBelowOneRejected(t *testing.T) {
	run := build(t)
	out := t.TempDir()
	for _, n := range []string{"0", "-1"} {
		for _, tc := range [][]string{
			{"figures", "-out", out},
			{"recovery", "-out", out},
			{"mhsim"},
			{"mhsim", "-audit"},
		} {
			args := append([]string{"-seeds", n, "-horizon", "500"}, tc[1:]...)
			stdout, stderr, code := run(tc[0], args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, "-seeds "+n) || strings.Contains(stderr, "panic") || !isEmptyDir(t, out) {
				t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 2 naming the flag and no output", tc[0], args, code, stdout, stderr)
			}
		}
	}
}

// TestWorkersBelowZeroRejected: `-workers -3` once ran silently on
// GOMAXPROCS workers in both commands that take it. A negative pool is a
// usage error naming the flag, before any run starts.
func TestWorkersBelowZeroRejected(t *testing.T) {
	run := build(t)
	out := t.TempDir()
	for _, tc := range [][]string{
		{"figures", "-table", "figure1", "-out", out},
		{"mhsim", "-seeds", "2"},
	} {
		args := append([]string{"-workers", "-3", "-horizon", "500"}, tc[1:]...)
		stdout, stderr, code := run(tc[0], args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-workers -3") || !isEmptyDir(t, out) {
			t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 2 naming the flag and no output", tc[0], args, code, stdout, stderr)
		}
	}
}

// TestScaleMaxBelowSweepRejected: `figures -scale -scalemax 5` once
// printed `[]` with exit 0, and with -out replaced the committed
// BENCH_scale.json with it. A bound below the sweep's smallest point (10
// hosts) is a usage error naming the flag, and nothing is written.
func TestScaleMaxBelowSweepRejected(t *testing.T) {
	run := build(t)
	out := t.TempDir()
	stdout, stderr, code := run("figures", "-scale", "-scalemax", "5", "-out", out)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-scalemax 5") || !isEmptyDir(t, out) {
		t.Errorf("figures -scale -scalemax 5: exit %d, stdout %q, stderr %q; want exit 2 naming the flag and no output", code, stdout, stderr)
	}
}

// isEmptyDir reports whether dir holds no entries.
func isEmptyDir(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries) == 0
}

func TestTableSelection(t *testing.T) {
	run := build(t)
	stdout, stderr, code := run("figures", "-table", "gains,overhead", "-seeds", "1", "-horizon", "1500")
	if code != 0 || !strings.Contains(stdout, "Headline gains (E7") || !strings.Contains(stdout, "Protocol overhead (E9") {
		t.Errorf("-table gains,overhead: exit %d, stderr %q, stdout:\n%s\nwant both tables", code, stderr, stdout)
	}
	stdout, stderr, code = run("figures", "-table", "nope")
	if code == 0 || stdout != "" {
		t.Errorf("-table nope: exit %d, stdout %q; want a failure and no table", code, stdout)
	}
	for _, e := range sim.Tables() {
		if !strings.Contains(stderr, e.Name) {
			t.Errorf("-table nope: stderr %q does not list %s", stderr, e.Name)
		}
	}
}

// TestMhsimRefusesWhatItWouldIgnore: every command line here once ran to
// exit 0 with the named flag or arguments silently dropped. Each is a
// usage error naming it, before any run starts (the bundle path is never
// opened).
func TestMhsimRefusesWhatItWouldIgnore(t *testing.T) {
	run := build(t)
	for _, tc := range []struct {
		args  []string
		names string
	}{
		{[]string{"-replay-schedule", "run.json", "-json"}, "-json"},
		{[]string{"-replay-schedule", "run.json", "-seeds", "5"}, "-seeds"},
		{[]string{"-replay-schedule", "run.json", "-engine", "conservative"}, "-engine"},
		{[]string{"-replay-schedule", "run.json", "-hosts", "3"}, "-hosts"},
		{[]string{"-replay-perturb", "0", "-horizon", "100"}, "-replay-perturb"},
		{[]string{"-json", "-seeds", "3", "-horizon", "100"}, "-json"},
		{[]string{"-json", "-audit", "-horizon", "100"}, "-json"},
		{[]string{"-horizon", "100", "extra", "args"}, "extra"},
	} {
		stdout, stderr, code := run("mhsim", tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.names) {
			t.Errorf("mhsim %v: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no output", tc.args, code, stdout, stderr, tc.names)
		}
	}
}

// TestMhsimMemprofileHoldsTheRun: `mhsim -memprofile` wrote its heap
// profile only after the run's result was dead, so the in-use view of a
// 20 000-host run showed 0.5 MB, all of it in runtime.main. Sampling
// every allocation, the profile of a small run must hold in-use bytes
// under the checkpoint store, which lives exactly as long as the result.
func TestMhsimMemprofileHoldsTheRun(t *testing.T) {
	run := build(t)
	prof := filepath.Join(t.TempDir(), "mem.out")
	t.Setenv("GODEBUG", "memprofilerate=1")
	if _, stderr, code := run("mhsim", "-hosts", "200", "-mss", "10", "-horizon", "200", "-protocols", "BCS,QBC", "-memprofile", prof); code != 0 {
		t.Fatalf("mhsim -memprofile: exit %d, stderr %q", code, stderr)
	}
	top, err := exec.Command("go", "tool", "pprof", "-top", "-sample_index=inuse_space", "-nodefraction=0", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, top)
	}
	for _, line := range strings.Split(string(top), "\n") {
		if strings.HasSuffix(line, "storage.(*Store).Take") {
			if fields := strings.Fields(line); fields[3] != "0" {
				return
			}
		}
	}
	t.Fatalf("no in-use bytes under storage.(*Store).Take in the heap profile:\n%s", top)
}

// TestOneQueueTwoEngines: every run is on the calendar queue, with no flag
// to choose another; the engines are sequential and conservative, and the
// bounded-lag driver's `timewarp` is refused naming both. A lane count is
// refused where no lanes run, instead of being dropped: `mhsim -lanes 4`,
// `-lanes -3` and `figures -lanes -2` once exited 0 on the sequential
// engine.
func TestOneQueueTwoEngines(t *testing.T) {
	run := build(t)
	stdout, stderr, code := run("mhsim", "-probes", "-v", "-horizon", "200")
	if code != 0 || !strings.Contains(stdout, "probes: queue[calendar]") {
		t.Errorf("mhsim -probes -v: exit %d, stderr %q, stdout:\n%s\nwant the global queue reported as queue[calendar]", code, stderr, stdout)
	}
	for _, cmd := range []string{"mhsim", "figures"} {
		stdout, stderr, code = run(cmd, "-queue", "calendar", "-horizon", "100")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-queue") {
			t.Errorf("%s -queue calendar: exit %d, stdout %q, stderr %q; want exit 2 for an undefined flag", cmd, code, stdout, stderr)
		}
		stdout, stderr, code = run(cmd, "-engine", "timewarp", "-horizon", "100")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "sequential") || !strings.Contains(stderr, "conservative") {
			t.Errorf("%s -engine timewarp: exit %d, stdout %q, stderr %q; want exit 2 naming sequential and conservative", cmd, code, stdout, stderr)
		}
	}
	for _, args := range [][]string{
		{"mhsim", "-horizon", "200", "-lanes", "4"},
		{"mhsim", "-horizon", "200", "-lanes", "-3"},
		{"figures", "-table", "gains", "-seeds", "1", "-horizon", "200", "-lanes", "-2"},
	} {
		stdout, stderr, code = run(args[0], args[1:]...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "Lanes") || !strings.Contains(stderr, "parallel Engine") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 saying Lanes needs a parallel Engine", args, code, stdout, stderr)
		}
	}
}

// TestMhsimReplayWritesInstruments: a replay takes -timeline and -metrics
// (it used to return before looking at either). The timeline must load
// and carry one checkpoint instant per checkpoint of the recording, and
// the sim_checkpoints_total rows must sum to the same.
func TestMhsimReplayWritesInstruments(t *testing.T) {
	run := build(t)
	mk, err := live.Factory("QBC")
	if err != nil {
		t.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 100
	cfg.Record = true
	c, err := live.NewCluster(cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	dir := t.TempDir()
	bundle, tlPath := filepath.Join(dir, "run.json"), filepath.Join(dir, "t.json")
	var buf bytes.Buffer
	if err := (&replaycmp.Bundle{Schedule: c.Schedule(), Live: c.Decisions()}).Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bundle, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := run("mhsim", "-replay-schedule", bundle, "-timeline", tlPath, "-metrics")
	if code != 0 || !strings.Contains(stdout, "replay matches") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	want := int64(0)
	for h := range c.Decisions().Checkpoints {
		want += int64(len(c.Decisions().Checkpoints[h]))
	}
	f, err := os.Open(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tl, err := obs.ImportTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	var instants int64
	for _, ev := range tl.Events() {
		if ev.Name == "checkpoint" {
			instants++
		}
	}
	var counted int64
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "sim_checkpoints_total{") {
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			counted += n
		}
	}
	if want == 0 || instants != want || counted != want {
		t.Fatalf("%d checkpoint instants and sim_checkpoints_total summing to %d for the recording's %d checkpoints", instants, counted, want)
	}
}

// TestMhsimRefusesHugeTPReplay: a 160 kB bundle naming 20 000 TP hosts and
// no event once ran mhsim out of memory building TP's dense vectors
// (4n² B, 1.6 GB). The replay is refused with the reason, exit 1, no crash.
func TestMhsimRefusesHugeTPReplay(t *testing.T) {
	run := build(t)
	const hosts = 20000
	var buf bytes.Buffer
	b := &replaycmp.Bundle{
		Schedule: &trace.Schedule{Hosts: hosts, Stations: 2, Protocol: "TP"},
		Live:     replaycmp.NewLog("TP", hosts),
	}
	if err := b.Export(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "huge.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := run("mhsim", "-replay-schedule", path)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "4n²") ||
		strings.Contains(stderr, "panic") || strings.Contains(stderr, "fatal error") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming TP's n² vectors", code, stdout, stderr)
	}
}
