// Live cluster: run a checkpointing protocol in the goroutine/mailbox
// runtime — real concurrency, an at-least-once transport that duplicates
// packets, hosts migrating between station goroutines — then build a
// recovery line from the live trace and verify it is consistent.
//
//	go run ./examples/live
//	go run ./examples/live -protocol TP -seed 7
//	go run ./examples/live -debug :6060   # keep a pprof+metrics endpoint up
//	go run ./examples/live -timeline live.trace.json
//	go run ./examples/live -record run.bundle.json
//
// With -debug the process serves the standard /debug/pprof/ handlers and
// a Prometheus /metrics endpoint (link queue depths, goroutine count,
// transport counters, and the protocol side's checkpoint and message-log
// counters under the simulator's names) while the cluster runs. With
// -timeline it writes the cluster's protocol events — including the
// send->deliver->forced-checkpoint flow chains and the recovery's
// rollback flow — as Chrome trace JSON for Perfetto/chrome://tracing; up
// to the rollback it is the timeline mhsim -replay-schedule writes for
// the -record bundle of the same run.
// With -record it captures the run's nondeterminism schedule and
// protocol decisions as a replaycmp bundle for differential replay:
//
//	go run ./cmd/mhsim -replay-schedule run.bundle.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
)

func main() {
	debug := flag.String("debug", "", "serve /debug/pprof/ and /metrics on this address while running (e.g. :6060)")
	timeline := flag.String("timeline", "", "write the protocol-event timeline (with causal flows) as Chrome trace JSON to this file")
	record := flag.String("record", "", "write the run's schedule + decision log as a replaycmp bundle to this file (for mhsim -replay-schedule)")
	proto := flag.String("protocol", "QBC", "protocol to run: TP, BCS, QBC or UNC (CL, PS and MS need marker rounds or timer ticks, and the cluster has no clock)")
	seed := flag.Uint64("seed", 1, "cluster seed")
	flag.Parse()

	cfg := live.DefaultConfig()
	cfg.Hosts = 12
	cfg.Stations = 5
	cfg.OpsPerHost = 2000
	cfg.DupProbability = 0.2 // a quite lossy-looking transport
	cfg.Seed = *seed
	cfg.Metrics = obs.NewRegistry()
	// Stations log every delivery, so a cell switch ships the host's log
	// to the new station and the summary can show what that costs.
	cfg.LogMode = mlog.Pessimistic
	if *timeline != "" {
		cfg.Timeline = obs.NewTimeline()
	}
	if *record != "" {
		cfg.Record = true
	}

	mk, err := live.Factory(*proto)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := live.NewCluster(cfg, mk)
	if err != nil {
		log.Fatal(err)
	}
	if *debug != "" {
		srv, addr, err := obs.ServeDebug(*debug, cfg.Metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/debug/pprof/ and http://%s/metrics\n", addr, addr)
	}
	cluster.Run()

	c := cluster.Counters()
	fmt.Printf("live run: %d goroutines (%d hosts + %d stations)\n",
		cfg.Hosts+cfg.Stations, cfg.Hosts, cfg.Stations)
	fmt.Printf("transport: %d sent, %d delivered, %d duplicates suppressed, %d still buffered\n",
		c.Sent, c.Delivered, c.Duplicates, c.Undrained)
	fmt.Printf("mobility:  %d cell switches, %d disconnections\n", c.Switches, c.Disconnect)
	// A hand-off ships what the host's log retains: for BCS and QBC the
	// suffix past the recovery-line frontier (the rest is pruned right
	// before the transfer), for TP and UNC everything ever logged.
	fmt.Printf("log hand-off: %d records in %d frame bytes, %.0f records per cell switch; %d entries retained, %d pruned\n\n",
		c.LogRecords, c.LogFrameBytes, float64(c.LogRecords)/float64(max(c.Switches, 1)),
		cluster.MLog().StableEntries(), cluster.MLog().Counters().Pruned)

	initial, basic, forced := cluster.Store().CountByKind(-1)
	fmt.Printf("%s checkpoints: %d initial, %d basic, %d forced\n", *proto, initial, basic, forced)

	if *record != "" {
		// Export before Recover: the bundle captures the recorded run, not
		// the post-hoc rollback (which re-baselines the store).
		sched := cluster.Schedule()
		b := &replaycmp.Bundle{Schedule: sched, Live: cluster.Decisions()}
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := b.Export(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded: %d schedule events, %d in flight -> %s\n",
			len(sched.Events), len(sched.InFlight), *record)
	}

	// Crash host 0 and *execute* the recovery: the cut is built from the
	// index line on stable storage, each rolled-back host's memory image
	// is fetched from the stations, checksum-verified and reinstalled.
	rep, err := cluster.Recover(0)
	if err != nil {
		log.Fatal(err)
	}
	// The stations log every delivery, so a message whose delivery is
	// stably logged survives the rollback of its send: only an orphan
	// without a log entry makes the line inconsistent.
	logged := func(to mobile.HostID, seq int) bool { return seq < cluster.MLog().StableBound(to) }
	if recovery.UnloggedOrphans(cluster.Trace(), rep.Cut, logged) != 0 {
		log.Fatal("recovery line inconsistent — this is a bug")
	}
	fmt.Printf("\nrecovery after crash of host 0: %d hosts rolled back, "+
		"%d propagation steps, %d KiB of state reinstalled\n",
		rep.Cut.RolledBack(), rep.DominoSteps, rep.BytesRestored/1024)
	for h, x := range rep.Cut {
		if x == recovery.End {
			fmt.Printf("  host %-2d keeps its state\n", h)
		} else {
			rec := cluster.Store().Chain(mobile.HostID(h))[x]
			fmt.Printf("  host %-2d restored from %s\n", h, rec.ID())
		}
	}

	// The same numbers the /metrics endpoint serves, read in-process. The
	// checkpoint counters are the protocol side's, under the simulator's
	// name: one sim_checkpoints_total sample per cause.
	snap := cfg.Metrics.Snapshot()
	frames, _ := snap.Get("live_frame_bytes_total")
	replayed, _ := snap.Get("live_replayed_messages_total")
	var ckpts int64
	var causes []string
	for _, smp := range snap.Counters {
		if smp.Name != "sim_checkpoints_total" {
			continue
		}
		ckpts += smp.Value
		for _, l := range smp.Labels {
			if l.Key == "cause" {
				causes = append(causes, fmt.Sprintf("%s %d", l.Value, smp.Value))
			}
		}
	}
	fmt.Printf("\nmetrics: %d frame bytes on the wire, %d checkpoints (%s), %d messages replayed\n",
		frames, ckpts, strings.Join(causes, ", "), replayed)

	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := cfg.Timeline.Export(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline: %d events -> %s\n", cfg.Timeline.Len(), *timeline)
	}
}
