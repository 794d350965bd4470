// Package cmd holds the end-to-end checks of the figures and recovery
// commands: the flag values no run may start from, and table selection.
package cmd

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mobickpt/internal/sim"
)

// build compiles both commands into a temp dir and returns a
// function that runs one of them: stdout, stderr and the exit code.
func build(t *testing.T) func(cmd string, args ...string) (string, string, int) {
	t.Helper()
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+"/", "./figures", "./recovery").CombinedOutput(); err != nil {
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
// panicked in sim.Seeds. Both are usage errors naming the flag, before
// any run starts.
func TestSeedsBelowOneRejected(t *testing.T) {
	run := build(t)
	for _, cmd := range []string{"figures", "recovery"} {
		for _, n := range []string{"0", "-1"} {
			stdout, stderr, code := run(cmd, "-seeds", n, "-horizon", "500", "-out", t.TempDir())
			if code != 2 || stdout != "" || !strings.Contains(stderr, "-seeds "+n) || strings.Contains(stderr, "panic") {
				t.Errorf("%s -seeds %s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag and no table", cmd, n, code, stdout, stderr)
			}
		}
	}
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
