package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mobickpt/internal/race"
)

// sweepConfig is a small but non-trivial configuration for the pool
// tests: checks off so the runs are cheap, horizon long enough that
// every protocol takes checkpoints.
func sweepConfig() Config {
	c := DefaultConfig()
	c.Horizon = 1500
	c.Workload.TSwitch = 200
	c.Workload.PSwitch = 0.8
	c.Workload.DisconnectMean = 300
	return c
}

// TestSweepParallelDeterministic is the tentpole acceptance check: a
// whole multi-figure sweep rendered through the public table path must
// be byte-identical at every worker count, including the GOMAXPROCS
// default. Parallelism may only change wall-clock time, never results.
func TestSweepParallelDeterministic(t *testing.T) {
	base := sweepConfig()
	specs := []FigureSpec{
		{ID: 1, Title: "det-a", PSend: 0.4, PSwitch: 1.0, H: 0, TSwitch: []float64{100, 500}},
		{ID: 2, Title: "det-b", PSend: 0.4, PSwitch: 0.8, H: 0.3, TSwitch: []float64{200, 1000}},
	}
	seeds := Seeds(7, 3)

	render := func(workers int) string {
		tabs, err := SweepFigures(specs, base, seeds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.String())
			b.WriteString(tab.CSV())
		}
		return b.String()
	}

	want := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
		if got := render(workers); got != want {
			t.Fatalf("workers=%d: sweep output differs from workers=1:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepParallelMatchesReplicate checks the per-point aggregates
// against the sequential Replicate path, point by point.
func TestSweepParallelMatchesReplicate(t *testing.T) {
	base := sweepConfig()
	points := []Config{base, base}
	points[1].Workload.TSwitch = 500
	seeds := Seeds(3, 3)

	sums, err := SweepParallel(points, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p := range points {
		seq, err := Replicate(points[p], seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Protocols {
			want, got := seq.Protocols[i], sums[p].Protocols[i]
			if want.Name != got.Name || want.Ntot.Mean() != got.Ntot.Mean() ||
				want.Ntot.Min() != got.Ntot.Min() || want.Ntot.Max() != got.Ntot.Max() {
				t.Fatalf("point %d protocol %s: parallel %v != sequential %v",
					p, want.Name, got.Ntot, want.Ntot)
			}
		}
	}
}

func TestSweepParallelValidation(t *testing.T) {
	base := sweepConfig()
	if _, err := SweepParallel(nil, Seeds(1, 2), 2); err == nil {
		t.Fatal("empty point list must fail")
	}
	if _, err := SweepParallel([]Config{base}, nil, 2); err == nil {
		t.Fatal("empty seed list must fail")
	}
	bad := base
	bad.Horizon = 0
	if _, err := SweepParallel([]Config{base, bad}, Seeds(1, 2), 2); err == nil ||
		!strings.Contains(err.Error(), "point 1") {
		t.Fatalf("invalid point must fail naming its index, got %v", err)
	}
}

// TestPerSeedExtract covers what perSeed adds to the pool SweepParallel
// always was: values come back in (point, seed) job order at any worker
// count, and a failing extract is a failed job like a failing run — the
// sweep-order-earliest error wins.
func TestPerSeedExtract(t *testing.T) {
	points := []Config{sweepConfig(), sweepConfig()}
	points[1].Workload.TSwitch = 500
	seeds := Seeds(5, 3)
	id := func(res *Result) ([]float64, error) {
		return []float64{res.Config.Workload.TSwitch, float64(res.Config.Seed)}, nil
	}
	for _, workers := range []int{1, 4} {
		vals, err := perSeed(points, seeds, workers, id)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range vals {
			if want := []float64{points[j/3].Workload.TSwitch, float64(seeds[j%3])}; !slices.Equal(v, want) {
				t.Fatalf("workers=%d: job %d returned %v, want %v", workers, j, v, want)
			}
		}
		_, err = perSeed(points, seeds, workers, func(res *Result) ([]float64, error) {
			if res.Config.Seed != seeds[0] {
				return nil, fmt.Errorf("extract failed on seed %d", res.Config.Seed)
			}
			return nil, nil
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(seeds[1])) {
			t.Fatalf("workers=%d: want the earliest extract error (seed %d), got %v", workers, seeds[1], err)
		}
	}
	if _, err := perSeed(points, nil, 2, id); err == nil {
		t.Fatal("empty seed list must fail")
	}
}

// TestSweepParallelPanicRecovered injects a panicking run and checks the
// pool converts it to an error instead of dying (or deadlocking) with
// the worker, at several worker counts.
func TestSweepParallelPanicRecovered(t *testing.T) {
	c := sweepConfig()
	seeds := Seeds(11, 6)
	real := runSim
	t.Cleanup(func() { runSim = real })
	runSim = func(cc Config) (*Result, error) {
		if cc.Seed == seeds[3] {
			panic("boom")
		}
		return real(cc)
	}

	for _, workers := range []int{1, 4} {
		done := make(chan struct{})
		var sum *Summary
		var err error
		go func() {
			sum, err = ReplicateParallel(c, seeds, workers)
			close(done)
		}()
		select {
		case <-done:
		//lint:allow simlint/detlint wall-clock watchdog guarding the test harness itself, not simulated time
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: pool deadlocked on a panicking worker", workers)
		}
		if err == nil || !strings.Contains(err.Error(), "panicked") ||
			!strings.Contains(err.Error(), fmt.Sprint(seeds[3])) {
			t.Fatalf("workers=%d: want panic error naming seed %d, got %v", workers, seeds[3], err)
		}
		if sum != nil {
			t.Fatalf("workers=%d: summary returned alongside an error", workers)
		}
	}
}

// TestEngineAllocsPerEvent bounds steady-state allocation across a whole
// run: with the des free list, pooled messages/payloads and interned
// piggybacks, the engine must average well under one allocation per
// fired event (the pre-pooling engine sat above two).
func TestEngineAllocsPerEvent(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	cfg := sweepConfig()
	var events uint64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		events = res.EventsFired
	})
	if events == 0 {
		t.Fatal("run fired no events")
	}
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs / %d events = %.4f allocs/event", allocs, events, perEvent)
	if perEvent > 0.5 {
		t.Fatalf("engine allocates %.4f per event (limit 0.5): pooling regressed", perEvent)
	}
}

// TestProbeAllocOverhead guards the engine-internals probes' allocation
// contract: the probe-off hot path is nil checks only (no allocation
// beyond the baseline engine), and probes-on adds just the O(1) probe
// structures at startup — an allocating increment on the per-event path
// would show up as a per-event delta here.
func TestProbeAllocOverhead(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	cfg := sweepConfig()
	var events uint64
	measure := func(probes bool) float64 {
		c := cfg
		c.Probes = probes
		return testing.AllocsPerRun(3, func() {
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			events = res.EventsFired
		})
	}
	off := measure(false)
	on := measure(true)
	if events == 0 {
		t.Fatal("run fired no events")
	}
	delta := on - off
	t.Logf("allocs/run: probes off %.0f, on %.0f (delta %.0f over %d events)", off, on, delta, events)
	// The probed run allocates its report and O(1) probe cells; anything
	// scaling with the event count means a hot-path increment allocates.
	if delta > 200 {
		t.Fatalf("probes add %.0f allocs/run (limit 200): a probe hook allocates on the hot path", delta)
	}
}
