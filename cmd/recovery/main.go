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

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/sim"
)

func main() {
	var (
		tswitch    = flag.Float64("tswitch", 1000, "mean cell permanence time")
		pswitch    = flag.Float64("pswitch", 0.8, "probability of hand-off (vs disconnection)")
		het        = flag.Float64("h", 0, "heterogeneity degree H")
		horizon    = flag.Float64("horizon", float64(sim.TraceHorizon), "simulated time units (trace recording costs memory)")
		seeds      = flag.Int("seeds", 3, "replication seeds (at least 1)")
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
		exit(2, err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
		}
	}()

	mode, err := mlog.ParseMode(*logMode)
	if err != nil {
		exit(2, err)
	}
	cfg := sim.DefaultConfig()
	if *failed < 0 || *failed >= cfg.Mobile.NumHosts {
		exit(2, fmt.Errorf("-failed %d out of range (the run has %d hosts, 0..%d)", *failed, cfg.Mobile.NumHosts, cfg.Mobile.NumHosts-1))
	}
	if *seeds < 1 {
		exit(2, fmt.Errorf("-seeds %d: a table needs at least one seed", *seeds))
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	cfg.Workload.TSwitch = *tswitch
	cfg.Workload.PSwitch = *pswitch
	cfg.Workload.Heterogeneity = *het
	cfg.Horizon = des.Time(*horizon)
	cfg.MessageLog = mode

	tab, err := sim.RecoveryTable(cfg, sim.Seeds(*seed, *seeds), 0, mobile.HostID(*failed), reg)
	if err != nil {
		exit(1, err)
	}
	fmt.Print(tab)
	if *outDir != "" {
		if err := tab.WritePair(*outDir, "recovery"); err != nil {
			exit(1, err)
		}
	}
	if reg != nil {
		if err := reg.Snapshot().WritePrometheus(os.Stderr); err != nil {
			exit(1, err)
		}
	}
}

func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "recovery:", err)
	os.Exit(code)
}
