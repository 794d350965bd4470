package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// execSpec runs one spec in this process and returns what it measured.
func execSpec(sp Spec) *Result {
	var rec *recorder
	if sp.Traced {
		rec = &recorder{}
	}
	var out *Result
	switch sp.Phase {
	case phaseSetup:
		out = runSetup(sp, rec)
	case phaseRep:
		out = runRep(sp, rec)
	case phasePeel:
		out = runPeel(sp, rec)
	case phaseMicro:
		out = runMicro(sp, rec)
	default:
		out = &Result{}
		out.fail("unknown phase %q", sp.Phase)
	}
	if rec != nil {
		out.Spans = rec.spans
	}
	out.RSSMB = peakRSSMB()
	return out
}

// childMain is the hidden -child mode: one spec on stdin, one result on
// stdout, nothing else.
func childMain() error {
	var sp Spec
	if err := json.NewDecoder(os.Stdin).Decode(&sp); err != nil {
		return fmt.Errorf("child: reading spec: %w", err)
	}
	return json.NewEncoder(os.Stdout).Encode(execSpec(sp))
}

// spawner runs each spec in a fresh process — a re-exec of this binary —
// so a rep's peak RSS is its own and no heap state leaks from one rep
// into the next. One child at a time; the parent waits for each.
func spawner(ctx context.Context) func(Spec) (*Result, error) {
	return func(sp Spec) (*Result, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		in, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, exe, "-child")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
		cmd.Stdin = bytes.NewReader(in)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output() // waits for the child to end
		if err != nil {
			return nil, fmt.Errorf("%s %s child: %w", sp.Workload, sp.Phase, err)
		}
		res := &Result{}
		if err := json.Unmarshal(raw, res); err != nil {
			return nil, fmt.Errorf("%s %s child: bad result: %w", sp.Workload, sp.Phase, err)
		}
		return res, nil
	}
}

// inProcess runs specs in the calling process: the smoke test's mode,
// where peak RSS is the test binary's and not worth a re-exec.
func inProcess(sp Spec) (*Result, error) { return execSpec(sp), nil }
