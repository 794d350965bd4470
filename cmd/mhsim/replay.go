package main

// Differential replay mode (-replay-schedule, experiment E24): load a
// bundle recorded by `examples/live -record`, re-execute its schedule
// through the deterministic sim engine, and hold the live and replayed
// protocol-decision logs to byte-identical agreement. Any divergence —
// a checkpoint taken at a different point, with a different index, kind
// or cause, a delivery observed with different control information, or
// a different post-hoc recovery line — is reported with its schedule
// position and exits non-zero — after the -timeline file and the -metrics
// dump are out, since a diverging replay is when they are wanted.

import (
	"fmt"
	"os"

	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
)

func runReplay(path string, perturb int, timeline string, cfg sim.Config) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	b, err := replaycmp.ImportBundle(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}

	cfg.Schedule = b.Schedule
	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim: replay:", err)
		os.Exit(1)
	}

	if perturb >= 0 {
		if !replaycmp.Perturb(res.Decisions, perturb) {
			fmt.Fprintf(os.Stderr, "mhsim: -replay-perturb %d: replay has fewer checkpoints\n", perturb)
			os.Exit(2)
		}
		fmt.Printf("perturbed replayed checkpoint #%d before diffing\n", perturb)
	}

	pr := res.Protocols[0]
	fmt.Printf("replayed %s: %d hosts, %d schedule events, %d checkpoints (%d basic + %d forced), %d deliveries\n",
		pr.Name, res.FinalHosts, len(b.Schedule.Events),
		pr.Initial+pr.Ntot, pr.Basic, pr.Forced, pr.Trace.Len())

	d := replaycmp.Compare(b.Live, res.Decisions, b.Schedule)
	if d == nil {
		fmt.Println("replay matches the live recording: decision logs identical")
	}
	saveTimeline(timeline, "timeline", cfg.Timeline)
	printMetrics(cfg.Metrics)
	if d != nil {
		fmt.Fprintln(os.Stderr, "mhsim: "+d.String())
		os.Exit(1)
	}
}
