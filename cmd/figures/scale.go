package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"mobickpt/internal/pdes"
	"mobickpt/internal/sim"
)

// E21 runner: the million-host scale sweep. The simulation core is
// deterministic and clock-free (detlint enforces it), so the host-side
// measurements — wall seconds, events/sec, peak RSS — live here in the
// command, outside the analyzer's scope, and are stamped onto each
// sim.ScaleMeasurement after its run returns.

// runScale measures the sweep points (sim.ScalePoints) on one engine,
// prints the JSON to stdout and, when outDir is set, also writes
// outDir/BENCH_scale.json (the committed artifact).
func runScale(pts []sim.ScalePoint, engine pdes.Mode, lanes int, seed uint64, outDir string) error {
	ms := make([]*sim.ScaleMeasurement, 0, len(pts))
	for _, p := range pts {
		resetPeakRSS()
		start := time.Now() //lint:allow simlint/detlint bench wall-clock: throughput measurement, never enters the simulated trace
		m, err := sim.MeasureScale(p, seed, engine, lanes)
		if err != nil {
			return err
		}
		m.WallSeconds = time.Since(start).Seconds() //lint:allow simlint/detlint bench wall-clock: throughput measurement, never enters the simulated trace
		if m.WallSeconds > 0 {
			m.EventsPerSec = float64(m.Events) / m.WallSeconds
		}
		m.PeakRSSBytes = peakRSS()
		eng := engine.String()
		if m.PDES != nil {
			eng = fmt.Sprintf("%s lanes=%d windows=%d", eng, m.PDES.Lanes, m.PDES.Windows)
		}
		fmt.Fprintf(os.Stderr, "figures: scale n=%d queue=%s engine=%s events=%d wall=%.2fs events/sec=%.0f peakRSS=%.1fMB\n",
			m.Hosts, m.Queue, eng, m.Events, m.WallSeconds, m.EventsPerSec, float64(m.PeakRSSBytes)/(1<<20))
		ms = append(ms, m)
	}
	if err := sim.WriteScaleJSON(os.Stdout, ms); err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, "BENCH_scale.json"))
		if err != nil {
			return err
		}
		if err := sim.WriteScaleJSON(f, ms); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// peakRSS reads VmHWM from /proc/self/status: the process's resident-set
// high-water mark in bytes. Returns 0 where /proc is unavailable, so the
// JSON field simply stays unmeasured off Linux.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// resetPeakRSS re-arms the VmHWM watermark between sweep points: freed
// Go heap is first returned to the OS, then writing "5" to
// /proc/self/clear_refs resets the high-water mark to the current RSS.
// Best-effort — on kernels or platforms without clear_refs the watermark
// stays cumulative, which for a monotonically growing sweep is still
// dominated by the current (largest) point.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}
