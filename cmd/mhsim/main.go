// Command mhsim runs one simulation of the paper's mobile checkpointing
// study and prints per-protocol results.
//
// Example (the environment of Figure 2 at T_switch = 1000):
//
//	mhsim -tswitch 1000 -pswitch 0.8 -h 0 -seeds 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
)

func main() {
	var (
		hosts      = flag.Int("hosts", 10, "number of mobile hosts")
		mss        = flag.Int("mss", 5, "number of mobile support stations")
		tswitch    = flag.Float64("tswitch", 1000, "mean cell permanence time of slow hosts")
		pswitch    = flag.Float64("pswitch", 1.0, "probability of hand-off (vs disconnection)")
		psend      = flag.Float64("ps", 0.4, "probability a communication is a send")
		pcomm      = flag.Float64("pcomm", 0.05, "probability an operation is a communication")
		contention = flag.Bool("contention", false, "model per-cell wireless channel contention")
		het        = flag.Float64("h", 0, "heterogeneity degree H in [0,1]")
		horizon    = flag.Float64("horizon", 100000, "simulated time units")
		seeds      = flag.Int("seeds", 1, "number of replication seeds (at least 1)")
		seed       = flag.Uint64("seed", 1, "base seed")
		workers    = flag.Int("workers", 0, "worker pool size for multi-seed replication; 0 = GOMAXPROCS")
		protos     = flag.String("protocols", "TP,BCS,QBC", "comma-separated protocols (TP,BCS,QBC,UNC,CL,PS,MS)")
		snapshot   = flag.Float64("snapshot", 100, "snapshot/tick period of the clock-driven protocols (CL, PS, MS); must be > 0 when one is selected")
		verbose    = flag.Bool("v", false, "print substrate counters and energy details, and report simulated-time progress to stderr")
		jsonOut    = flag.Bool("json", false, "emit the single-run result as JSON")
		checks     = flag.Bool("checks", false, "run the invariant checker during the simulation (fails on any violation)")
		audit      = flag.Bool("audit", false, "run the determinism/ablation audit: re-run each protocol alone and require exact agreement with the shared trace")
		logMode    = flag.String("log", "off", "MSS message logging: off, pessimistic or optimistic")
		engine     = flag.String("engine", "sequential", "execution engine: sequential or conservative (never changes results)")
		lanes      = flag.Int("lanes", 0, "logical processes for the conservative engine; 0 = GOMAXPROCS")
		metrics    = flag.Bool("metrics", false, "print the run's metrics as Prometheus text after the results (single-run mode)")
		timeline   = flag.String("timeline", "", "write a per-host Chrome trace-event timeline (Perfetto-loadable) to this file (single-run mode)")
		probes     = flag.Bool("probes", false, "enable engine-internals probes (queue/pool/lane counters); adds a probes block to -json output (single-run mode)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		replayFile = flag.String("replay-schedule", "", "differential replay (E24): re-execute a recorded live bundle (examples/live -record) through the deterministic engine and diff the decision logs; exits 1 on any divergence")
		perturb    = flag.Int("replay-perturb", -1, "with -replay-schedule: flip the n-th replayed checkpoint decision before diffing (proves the gate can fail)")
	)
	flag.Parse()
	if err := checkUsage(*replayFile != ""); err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "mhsim: -seeds %d: a run needs at least one seed\n", *seeds)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "mhsim: -workers %d: a worker pool cannot be negative (0 = GOMAXPROCS)\n", *workers)
		os.Exit(2)
	}
	if (*jsonOut || *metrics || *timeline != "" || *probes) && (*seeds > 1 || *audit) {
		fmt.Fprintln(os.Stderr, "mhsim: -json, -metrics, -timeline and -probes need single-run mode (-seeds 1, no -audit)")
		os.Exit(2)
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	// result is the run's result, kept reachable until the heap profile is
	// written so that the profile's in-use view shows what the run holds.
	var result *sim.Result
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "mhsim:", err)
		}
		runtime.KeepAlive(result)
	}()

	cfg := sim.DefaultConfig()
	cfg.Mobile.NumHosts = *hosts
	cfg.Mobile.NumMSS = *mss
	cfg.Workload.TSwitch = *tswitch
	cfg.Workload.PSwitch = *pswitch
	cfg.Workload.PSend = *psend
	cfg.Workload.PComm = *pcomm
	cfg.Mobile.Contention = *contention
	cfg.Workload.Heterogeneity = *het
	cfg.Horizon = des.Time(*horizon)
	cfg.SnapshotPeriod = des.Time(*snapshot)
	cfg.Checks = *checks
	mode, err := mlog.ParseMode(*logMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	cfg.MessageLog = mode
	if *metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	if *timeline != "" {
		cfg.Timeline = obs.NewTimeline()
	}
	if *replayFile != "" {
		runReplay(*replayFile, *perturb, *timeline, sim.Config{
			Checks: cfg.Checks, MessageLog: cfg.MessageLog, Metrics: cfg.Metrics, Timeline: cfg.Timeline,
		})
		return
	}
	cfg.Engine, err = pdes.ParseMode(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	cfg.Lanes = *lanes
	if cfg.Checks && mode != mlog.Off {
		// The log-reconciliation invariants compare the log against the
		// recorded trace.
		cfg.RecordTrace = true
	}
	cfg.Protocols = nil
	for _, p := range strings.Split(*protos, ",") {
		cfg.Protocols = append(cfg.Protocols, sim.ProtocolName(strings.TrimSpace(p)))
	}
	if *verbose && cfg.Engine == pdes.ModeSequential {
		// Parallel runs have no single clock to report against.
		cfg.Progress = func(now des.Time, fired uint64) {
			fmt.Fprintf(os.Stderr, "mhsim: t=%.0f/%.0f (%.0f%%) events=%d\n",
				float64(now), float64(cfg.Horizon), 100*float64(now)/float64(cfg.Horizon), fired)
		}
	}
	if *audit {
		cfg.Checks = true
		if err := sim.Audit(cfg, sim.Seeds(*seed, *seeds)); err != nil {
			fmt.Fprintln(os.Stderr, "mhsim: audit failed:", err)
			os.Exit(1)
		}
		fmt.Printf("audit passed: %d protocol(s), %d seed(s), shared trace == solo re-simulation\n",
			len(cfg.Protocols), *seeds)
		return
	}

	if *seeds == 1 {
		cfg.Seed = *seed
		cfg.Probes = *probes
		res, err := sim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mhsim:", err)
			os.Exit(1)
		}
		result = res
		saveTimeline(*timeline, "timeline", cfg.Timeline)
		if *jsonOut {
			if err := res.ExportJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mhsim:", err)
				os.Exit(1)
			}
			return
		}
		printRun(res, *verbose)
		printMetrics(cfg.Metrics)
		return
	}

	sum, err := sim.ReplicateParallel(cfg, sim.Seeds(*seed, *seeds), *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(1)
	}
	tab := stats.NewTable(
		fmt.Sprintf("Ntot over %d seeds (Tswitch=%.0f Pswitch=%.2f Ps=%.2f H=%.0f%%)",
			*seeds, *tswitch, *pswitch, *psend, *het*100),
		"protocol", "mean", "min", "max", "spread")
	for _, p := range sum.Protocols {
		tab.AddRow(string(p.Name),
			fmt.Sprintf("%.1f", p.Ntot.Mean()),
			fmt.Sprintf("%.0f", p.Ntot.Min()),
			fmt.Sprintf("%.0f", p.Ntot.Max()),
			fmt.Sprintf("%.1f%%", p.Ntot.RelSpread()*100))
	}
	fmt.Print(tab)
}

// replayFlags are the flags -replay-schedule composes with: the schedule
// dictates topology, protocol, event order and clock, so every other
// flag would be set and then ignored.
var replayFlags = []string{"replay-schedule", "replay-perturb", "checks", "log",
	"timeline", "metrics", "cpuprofile", "memprofile"}

// checkUsage refuses command lines part of which no run would look at:
// positional arguments, a flag outside replayFlags next to
// -replay-schedule, -replay-perturb without it.
func checkUsage(replay bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (mhsim takes flags only)", flag.Args())
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case replay && !slices.Contains(replayFlags, f.Name):
			err = fmt.Errorf("-%s does not apply to -replay-schedule: the schedule dictates the run (it takes -%s)",
				f.Name, strings.Join(replayFlags[1:], ", -"))
		case !replay && f.Name == "replay-perturb":
			err = fmt.Errorf("-replay-perturb needs -replay-schedule")
		}
	})
	return err
}

// saveTimeline exports tl to path and says so on stderr; a nil tl (the
// flag was not given) is nothing to save.
func saveTimeline(path, what string, tl *obs.Timeline) {
	if tl == nil {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = errors.Join(tl.Export(f), f.Close())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mhsim: wrote %s %s (%d events)\n", what, path, tl.Len())
}

// printMetrics dumps reg as Prometheus text after the results; nil (no
// -metrics) prints nothing.
func printMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Println()
	if err := reg.Snapshot().WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(1)
	}
}

func printRun(res *sim.Result, verbose bool) {
	tab := stats.NewTable(
		fmt.Sprintf("single run, seed %d, horizon %.0f", res.Config.Seed, float64(res.Config.Horizon)),
		"protocol", "Ntot", "basic", "forced", "piggyback(B)", "ctrlMsgs")
	for _, pr := range res.Protocols {
		tab.AddRow(string(pr.Name),
			fmt.Sprint(pr.Ntot), fmt.Sprint(pr.Basic), fmt.Sprint(pr.Forced),
			fmt.Sprint(pr.PiggybackBytes), fmt.Sprint(pr.CtrlMessages))
	}
	fmt.Print(tab)
	if res.Config.MessageLog != mlog.Off {
		lt := stats.NewTable(
			fmt.Sprintf("MSS message log (%s)", res.Config.MessageLog),
			"protocol", "appended", "flushes", "stable(B)", "handoffs", "xfer(B)", "pruned")
		for _, pr := range res.Protocols {
			lt.AddRow(string(pr.Name),
				fmt.Sprint(pr.Log.Appended), fmt.Sprint(pr.Log.Flushes),
				fmt.Sprint(pr.Log.StableBytes), fmt.Sprint(pr.Log.Handoffs),
				fmt.Sprint(pr.Log.TransferBytes), fmt.Sprint(pr.Log.Pruned))
		}
		fmt.Print(lt)
	}
	if verbose {
		fmt.Printf("\nworkload: %+v\n", res.Workload)
		fmt.Printf("network:  %+v\n", res.Network)
		for _, pr := range res.Protocols {
			fmt.Printf("%s energy: %s  storage: %+v\n", pr.Name, pr.Energy, pr.Storage)
		}
		fmt.Printf("DES events fired: %d\n", res.EventsFired)
		if p := res.Probes; p != nil {
			fmt.Printf("probes: queue[%s] pushes=%d pops=%d inline=%d maxlen=%d chain=%d sweep=%d resizes=%d\n",
				p.GlobalQueue.Kind, p.GlobalQueue.Pushes, p.GlobalQueue.Pops, p.GlobalQueue.Inline, p.GlobalQueue.MaxLen,
				p.GlobalQueue.ChainSteps, p.GlobalQueue.SweepSteps, p.GlobalQueue.Resizes)
			fmt.Printf("probes: event pool hit=%d miss=%d recycled=%d; message pool hit=%d miss=%d recycled=%d\n",
				p.EventPool.Hits, p.EventPool.Misses, p.EventPool.Recycled,
				p.MessagePool.Hits, p.MessagePool.Misses, p.MessagePool.Recycled)
			for i, lp := range p.LaneProbes {
				fmt.Printf("probes: lane %d events=%d windows=%d mailbox=%d (peak %d) queue{push=%d pop=%d inline=%d maxlen=%d}\n",
					i, lp.Events, lp.Windows, lp.MailboxMsgs, lp.MailboxPeak,
					p.LaneQueues[i].Pushes, p.LaneQueues[i].Pops, p.LaneQueues[i].Inline, p.LaneQueues[i].MaxLen)
			}
		}
		if st := res.PDES; st != nil {
			fmt.Printf("pdes: lanes=%d processed=%d windows=%d serial=%d global=%d\n",
				st.Lanes, st.Processed, st.Windows, st.SerialSteps, st.GlobalEvents)
		}
	}
}
