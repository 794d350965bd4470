// Command figures regenerates the evaluation of the paper — the six
// N_tot-vs-T_switch figures of §5.2 — and every extension experiment
// with a committed table: the sixteen entries of the registry in
// internal/sim/tables.go, one per results/<name>.{txt,csv}. The
// experiment logic lives in internal/sim; this command only parses flags
// and formats output.
//
// Usage:
//
//	figures                          # all six figures (full scale)
//	figures -table figure2           # one table by name
//	figures -table gains,overhead    # several; `-table nope` lists the names
//	figures -table all -seeds 3 -out results   # `make results`: every committed pair
//	figures -plot                    # ASCII log-log charts instead of tables
//	figures -scale                   # million-host scale sweep (E21), JSON output
//	figures -seeds 3 -csv            # fewer seeds, CSV output
package main

import (
	"flag"
	"fmt"
	"os"

	"mobickpt/internal/des"
	"mobickpt/internal/pdes"
	"mobickpt/internal/sim"
)

func main() {
	var (
		table    = flag.String("table", "", "tables to build: comma-separated registry names (figure1..figure6, gains, overhead, ...) or all; empty = the six figures")
		seeds    = flag.Int("seeds", 3, "replication seeds per point (at least 1)")
		seed     = flag.Uint64("seed", 1, "base seed")
		horizon  = flag.Float64("horizon", 0, "simulated time units per run; 0 = each table's own (100000; 20000 for replay and recovery)")
		scale    = flag.Bool("scale", false, "run the million-host scale sweep (E21) and emit JSON")
		scaleMax = flag.Int("scalemax", 1_000_000, "largest host count of the -scale sweep (at least 10, its smallest point)")
		engine   = flag.String("engine", "sequential", "execution engine: sequential or conservative (never changes results)")
		lanes    = flag.Int("lanes", 0, "logical processes for the conservative engine; 0 = GOMAXPROCS")
		plot     = flag.Bool("plot", false, "draw the figures behind the selected tables as ASCII log-log charts instead")
		pcomm    = flag.Float64("pcomm", 0.05, "probability an operation is a communication (calibration knob)")
		csv      = flag.Bool("csv", false, "print CSV instead of aligned tables")
		outDir   = flag.String("out", "", "directory to also write per-table .txt and .csv files")
		workers  = flag.Int("workers", 0, "worker pool size for parallel sweeps; 0 = GOMAXPROCS")
	)
	flag.Parse()

	em, err := pdes.ParseMode(*engine)
	if err != nil {
		exit(2, fmt.Errorf("-engine: %w", err))
	}
	if *workers < 0 {
		exit(2, fmt.Errorf("-workers %d: a worker pool cannot be negative (0 = GOMAXPROCS)", *workers))
	}

	if *scale {
		pts := sim.ScalePoints(*scaleMax)
		if len(pts) == 0 {
			exit(2, fmt.Errorf("-scalemax %d: the sweep's smallest point is 10 hosts", *scaleMax))
		}
		if err := runScale(pts, em, *lanes, *seed, *outDir); err != nil {
			exit(1, err)
		}
		return
	}

	sel, err := sim.ParseTables(*table)
	if err != nil {
		exit(2, fmt.Errorf("-table: %w", err))
	}
	if *seeds < 1 {
		exit(2, fmt.Errorf("-seeds %d: a table needs at least one seed", *seeds))
	}

	base := sim.DefaultConfig()
	base.Engine = em
	base.Lanes = *lanes
	base.Horizon = des.Time(*horizon)
	base.Workload.PComm = *pcomm
	seedSet := sim.Seeds(*seed, *seeds)

	if *plot {
		charts, err := sim.PlotFigures(sel, base, seedSet, *workers)
		if err != nil {
			exit(1, err)
		}
		for _, chart := range charts {
			fmt.Println(chart)
		}
		return
	}

	tabs, err := sim.BuildTables(sel, base, seedSet, *workers)
	if err != nil {
		exit(1, err)
	}
	for i, tab := range tabs {
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab)
		}
		if *outDir != "" {
			if err := tab.WritePair(*outDir, sel[i].Name); err != nil {
				exit(1, err)
			}
		}
	}
}

// exit reports err and ends the command: code 2 for a flag value no run
// can start from (like the flag package's own errors), 1 otherwise.
func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(code)
}
