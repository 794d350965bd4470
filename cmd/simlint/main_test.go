package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mobickpt/internal/analysis"
)

// seededModule is the scratch module carrying one deliberate violation
// per analyzer, under package paths the production scope matches.
const seededModule = "../../internal/analysis/testdata/module"

var buildOnce struct {
	sync.Once
	bin string
	err error
}

// buildSimlint compiles the simlint binary once per test run.
func buildSimlint(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "simlint-e2e-")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "simlint")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = err
			os.RemoveAll(dir)
			return
		}
		_ = out
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("building simlint: %v", buildOnce.err)
	}
	return buildOnce.bin
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	t.Fatalf("running simlint: %v", err)
	return -1
}

// TestHandshake covers the two unit-checker probe invocations cmd/go
// issues before any analysis: -flags must print a JSON flag list and
// -V=full a one-line identity that hashes the binary — also when the
// tool was resolved through PATH, where os.Args[0] names no file.
func TestHandshake(t *testing.T) {
	bin := buildSimlint(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil || strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("-flags: got %q, err %v; want \"[]\"", out, err)
	}
	byPath, err := exec.Command(bin, "-V=full").Output()
	if err != nil || !strings.HasPrefix(string(byPath), "simlint version ") {
		t.Fatalf("-V=full: got %q, err %v; want \"simlint version ...\"", byPath, err)
	}

	t.Setenv("PATH", filepath.Dir(bin))
	cmd := exec.Command("simlint", "-V=full")
	cmd.Dir = t.TempDir() // the bare name must not resolve relative to the cwd
	byName, err := cmd.Output()
	if err != nil {
		t.Fatalf("-V=full via PATH: %v", err)
	}
	if string(byName) != string(byPath) {
		t.Errorf("-V=full via PATH printed %q, want the same identity as by path: %q", byName, byPath)
	}
	if emptyHash := fmt.Sprintf("buildID=%x", sha256.Sum256(nil)); strings.Contains(string(byName), emptyHash) {
		t.Errorf("-V=full via PATH hashed no bytes: %q", byName)
	}
}

// TestUsage: anything but the unit-checker protocol (here, the package
// pattern a standalone linter would take) prints the usage line.
func TestUsage(t *testing.T) {
	bin := buildSimlint(t)
	out, err := exec.Command(bin, "./...").CombinedOutput()
	if code := exitCode(t, err); code != 2 || !strings.HasPrefix(string(out), "usage: go vet -vettool=") {
		t.Fatalf("exit code %d, output %q; want 2 and the usage line", code, out)
	}
}

// TestVettoolSeededModuleFails drives the real `go vet -vettool`
// protocol end to end over the seeded module: with the scope the
// repository is gated with, every analyzer must report its seeded
// violation, and the external test package must be analyzed too.
func TestVettoolSeededModuleFails(t *testing.T) {
	bin := buildSimlint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = seededModule
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed over the seeded module:\n%s", out)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(string(out), "simlint/"+a.Name+": ") {
			t.Errorf("vet output missing the seeded simlint/%s finding", a.Name)
		}
	}
	if !strings.Contains(string(out), "simlint/lanelint: des.Simulator.ScheduleArg called inside a pdes lane handler") {
		t.Errorf("vet output missing lanelint's finding for the seeded LaneEscape")
	}
	if !strings.Contains(string(out), "external_test.go") {
		t.Errorf("vet output has no finding in the external test package (sim_test)")
	}
	if t.Failed() {
		t.Logf("vet output:\n%s", out)
	}
}

// TestVettoolRepoClean runs the vettool over the whole repository: the
// tree, test files included, must be clean (true positives fixed,
// sanctioned exceptions annotated with //lint:allow).
func TestVettoolRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo vettool run skipped in -short mode")
	}
	bin := buildSimlint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over the repo: %v\n%s", err, out)
	}
}
