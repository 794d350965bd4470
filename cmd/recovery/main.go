// Command recovery runs the extension experiment E8 (the paper's §6
// "future work"): it injects a failure at the end of a simulated run and
// measures, per protocol, how far the computation must roll back —
// number of hosts involved, undone computation time, undone messages,
// and the number of orphan-elimination (domino) steps needed beyond the
// protocol's on-the-fly recovery line.
//
// The uncoordinated baseline (UNC) is included to exhibit the domino
// effect the communication-induced protocols are designed to avoid.
//
// With -log pessimistic|optimistic the run logs every delivery on the
// MSSs (internal/mlog) and the table gains the replay-aware columns:
// what recovery still undoes when rolled-back hosts replay their stably
// logged messages (E18's mechanism under E8's failure model).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/recovery"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
	"mobickpt/internal/storage"
)

func main() {
	var (
		tswitch    = flag.Float64("tswitch", 1000, "mean cell permanence time")
		pswitch    = flag.Float64("pswitch", 0.8, "probability of hand-off (vs disconnection)")
		het        = flag.Float64("h", 0, "heterogeneity degree H")
		horizon    = flag.Float64("horizon", 20000, "simulated time units (trace recording costs memory)")
		seeds      = flag.Int("seeds", 3, "replication seeds")
		seed       = flag.Uint64("seed", 1, "base seed")
		failed     = flag.Int("failed", 0, "host that crashes at the horizon")
		logMode    = flag.String("log", "off", "MSS message logging: off, pessimistic or optimistic")
		metrics    = flag.Bool("metrics", false, "print rollback metrics (Prometheus text, incl. the recovery_rollback_depth histogram) to stderr")
		outDir     = flag.String("out", "", "directory to also write recovery.txt and recovery.csv (the pair is divergence-checked before writing)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recovery:", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
		}
	}()

	mode, err := mlog.ParseMode(*logMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recovery:", err)
		os.Exit(2)
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}

	cfg := sim.DefaultConfig()
	if *failed < 0 || *failed >= cfg.Mobile.NumHosts {
		fmt.Fprintf(os.Stderr, "recovery: -failed %d out of range (the run has %d hosts, 0..%d)\n", *failed, cfg.Mobile.NumHosts, cfg.Mobile.NumHosts-1)
		os.Exit(2)
	}
	cfg.Workload.TSwitch = *tswitch
	cfg.Workload.PSwitch = *pswitch
	cfg.Workload.Heterogeneity = *het
	cfg.Horizon = des.Time(*horizon)
	cfg.Protocols = []sim.ProtocolName{sim.TP, sim.BCS, sim.QBC, sim.UNC}
	cfg.RecordTrace = true
	cfg.MessageLog = mode

	type acc struct {
		hosts, undoneTime, maxRollback, undoneMsgs, domino, excess stats.Mean
		replayHosts, replayUndone, replayed                        stats.Mean
	}
	accs := make(map[sim.ProtocolName]*acc)
	for _, p := range cfg.Protocols {
		accs[p] = &acc{}
	}

	for _, s := range sim.Seeds(*seed, *seeds) {
		c := cfg
		c.Seed = s
		res, err := sim.Run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
		for i := range res.Protocols {
			pr := &res.Protocols[i]
			n := pr.Trace.NumHosts()
			out, err := sim.AnalyzeReplay(pr, n, mobile.HostID(*failed), c.Horizon)
			if err != nil {
				fmt.Fprintln(os.Stderr, "recovery:", err)
				os.Exit(1)
			}
			m := out.Plain
			counts := make([]int, n)
			for h := range counts {
				counts[h] = len(pr.Store.Chain(mobile.HostID(h)))
			}
			recovery.ObserveRollback(reg, string(pr.Name), out.PlainCut, counts)
			// The yardstick: the best any recovery scheme could do with
			// this protocol's checkpoints.
			optimal := recovery.MaximalCut(pr.Trace, pr.Store, n, mobile.HostID(*failed))
			mo := recovery.Measure(pr.Trace, optimal,
				func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) },
				c.Horizon, 0)
			a := accs[pr.Name]
			a.hosts.Add(float64(m.RolledBackHosts))
			a.undoneTime.Add(float64(m.UndoneTime))
			a.maxRollback.Add(float64(m.MaxRollback))
			a.undoneMsgs.Add(float64(m.UndoneMessages))
			a.domino.Add(float64(m.DominoSteps))
			a.excess.Add(float64(m.UndoneTime - mo.UndoneTime))
			a.replayHosts.Add(float64(out.Replay.RolledBackHosts))
			a.replayUndone.Add(float64(out.Replay.UndoneTime))
			a.replayed.Add(float64(out.Replay.ReplayedMessages))
		}
	}

	cols := []string{"protocol", "hosts rolled back", "undone time", "max rollback", "undone msgs", "domino steps", "excess vs optimal"}
	if mode != mlog.Off {
		cols = append(cols, "hosts (replay)", "undone (replay)", "replayed msgs")
	}
	tab := stats.NewTable(
		fmt.Sprintf("Recovery after failure of host %d at t=%.0f (E8; %d seeds, Tswitch=%.0f, Pswitch=%.2f, H=%.0f%%, log=%s)",
			*failed, *horizon, *seeds, *tswitch, *pswitch, *het*100, mode),
		cols...)
	for _, p := range cfg.Protocols {
		a := accs[p]
		row := []string{string(p),
			fmt.Sprintf("%.1f", a.hosts.Mean()),
			fmt.Sprintf("%.0f", a.undoneTime.Mean()),
			fmt.Sprintf("%.0f", a.maxRollback.Mean()),
			fmt.Sprintf("%.0f", a.undoneMsgs.Mean()),
			fmt.Sprintf("%.1f", a.domino.Mean()),
			fmt.Sprintf("%.0f", a.excess.Mean())}
		if mode != mlog.Off {
			row = append(row,
				fmt.Sprintf("%.1f", a.replayHosts.Mean()),
				fmt.Sprintf("%.0f", a.replayUndone.Mean()),
				fmt.Sprintf("%.0f", a.replayed.Mean()))
		}
		tab.AddRow(row...)
	}
	fmt.Print(tab)
	if *outDir != "" {
		txt, csvText := tab.String(), tab.CSV()
		if err := stats.CheckPair(txt, csvText); err != nil {
			fmt.Fprintln(os.Stderr, "recovery: txt/csv pair diverges:", err)
			os.Exit(1)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(*outDir, "recovery.txt"), []byte(txt), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(*outDir, "recovery.csv"), []byte(csvText), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
	}
	if reg != nil {
		if err := reg.Snapshot().WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
	}
}
