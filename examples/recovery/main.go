// Recovery walkthrough: run a simulation with trace recording, crash one
// host at the horizon, build each protocol's recovery line, and measure
// the rollback — including the domino effect on the uncoordinated
// baseline. This is the paper's §6 "future work" made concrete.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Horizon = 10000
	cfg.Workload.PSwitch = 0.8
	cfg.Protocols = []sim.ProtocolName{sim.TP, sim.BCS, sim.QBC, sim.UNC}
	cfg.RecordTrace = true // recovery analysis needs the message history

	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	n := cfg.Mobile.NumHosts
	fmt.Printf("a host crashes at t=%.0f; worst case over all crash sites:\n\n",
		float64(cfg.Horizon))

	tab := stats.NewTable("", "protocol", "hosts rolled back", "undone time", "undone msgs", "domino steps")
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		var worst recovery.Metrics
		for f := 0; f < n; f++ {
			// The protocol's own on-the-fly line, then orphan elimination
			// (zero steps for the index protocols; a cascade for the
			// uncoordinated baseline).
			out, err := sim.AnalyzeReplay(pr, n, mobile.HostID(f), cfg.Horizon)
			if err != nil {
				log.Fatal(err)
			}
			if m := out.Plain; m.UndoneTime > worst.UndoneTime {
				worst = m
			}
		}
		tab.AddRow(string(pr.Name),
			fmt.Sprint(worst.RolledBackHosts),
			fmt.Sprintf("%.0f", float64(worst.UndoneTime)),
			fmt.Sprint(worst.UndoneMessages),
			fmt.Sprint(worst.DominoSteps))
	}
	fmt.Print(tab)

	fmt.Println("\nthe communication-induced protocols recover from their on-the-fly")
	fmt.Println("lines with zero extra propagation; the uncoordinated baseline")
	fmt.Println("cascades (domino effect), often all the way to the initial states.")
}
