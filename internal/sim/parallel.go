package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// perSeed is the one way a table gets its runs: every (point, seed)
// combination of a sweep — the whole figure or experiment table, not just
// one point's replicates — goes over a single worker pool, extract reads
// what the table needs off each Result on the worker that ran it (so no
// Result outlives its job), and the values come back in job order: job
// p*len(seeds)+s is point p under seed s. Each run owns its entire engine
// (DES clock, network, protocol state), so runs share nothing and whatever
// a caller aggregates in that order is bit-identical to a sequential loop
// over the seeds regardless of the worker count — only wall-clock time
// changes (TestSweepParallelDeterministic, TestTablesWorkerInvariant).
// workers <= 0 selects GOMAXPROCS. An empty point or seed list is an
// error: a table of no runs is all zeros, not a result.
//
// Error handling fails fast deterministically: a worker that observes a
// failed run (or a failed extract) publishes the failed job's index, and
// the pool skips every job *after* the earliest known failure while still
// executing the jobs before it. That drains the queue promptly, yet
// guarantees the error returned is always the sweep-order-earliest one —
// independent of the worker count or scheduling. A run that panics is
// captured as an error on its job (the pool never deadlocks on a dying
// worker).
func perSeed(points []Config, seeds []uint64, workers int, extract func(*Result) ([]float64, error)) ([][]float64, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sim: a sweep needs at least one point")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: a sweep needs at least one seed")
	}
	for i := range points {
		if err := points[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: point %d: %w", i, err)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := len(points) * len(seeds)
	if workers > jobs {
		workers = jobs
	}

	vals := make([][]float64, jobs)
	errs := make([]error, jobs)

	// failedAt is the smallest job index known to have failed (jobs when
	// none has). Workers skip only jobs beyond it: everything before the
	// earliest failure still runs, which is what makes the returned error
	// deterministic.
	var failedAt atomic.Int64
	failedAt.Store(int64(jobs))

	// The channel is buffered to the job count and pre-filled, so no
	// feeder goroutine exists to deadlock when a worker exits early.
	next := make(chan int, jobs)
	for i := 0; i < jobs; i++ {
		next <- i
	}
	close(next)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if int64(i) > failedAt.Load() {
					continue // fail-fast: drain jobs after the earliest failure
				}
				c := points[i/len(seeds)]
				c.Seed = seeds[i%len(seeds)]
				if vals[i], errs[i] = runJob(c, extract); errs[i] != nil {
					for {
						cur := failedAt.Load()
						if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: the sweep-order-earliest failure.
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return vals, nil
}

// SweepParallel runs every (point, seed) combination on perSeed's pool
// and aggregates N_tot into one Summary per point, in seed order: the
// aggregates are bit-identical to sequential Replicate calls at any
// worker count, and errors are perSeed's.
func SweepParallel(points []Config, seeds []uint64, workers int) ([]*Summary, error) {
	ntot, err := perSeed(points, seeds, workers, func(res *Result) ([]float64, error) {
		row := make([]float64, len(res.Protocols))
		for j := range res.Protocols {
			row[j] = float64(res.Protocols[j].Ntot)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([]*Summary, len(points))
	for p := range points {
		sum := &Summary{Config: points[p], Seeds: seeds}
		sum.Protocols = make([]Replicated, len(points[p].Protocols))
		for i, name := range points[p].Protocols {
			sum.Protocols[i].Name = name
		}
		for s := range seeds {
			for j, v := range ntot[p*len(seeds)+s] {
				sum.Protocols[j].Ntot.Add(v)
			}
		}
		sums[p] = sum
	}
	return sums, nil
}

// runJob is one job — the run, then extract on its result — with a panic
// in either converted into an error, so a dying worker cannot take the
// whole pool (and the caller's wait) with it.
func runJob(c Config, extract func(*Result) ([]float64, error)) (row []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: run with seed %d panicked: %v", c.Seed, r)
		}
	}()
	res, err := runSim(c)
	if err != nil {
		return nil, err
	}
	return extract(res)
}

// ReplicateParallel is Replicate with the independently seeded runs
// spread over a worker pool: the single-point special case of
// SweepParallel, with the same determinism and fail-fast guarantees.
func ReplicateParallel(cfg Config, seeds []uint64, workers int) (*Summary, error) {
	sums, err := SweepParallel([]Config{cfg}, seeds, workers)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}
