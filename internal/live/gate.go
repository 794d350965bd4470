package live

import (
	"sync"
	"sync/atomic"

	"mobickpt/internal/mobile"
)

// skewWindow is W, the cluster's bounded skew: no running host starts an
// operation while it is W or more operations ahead of the slowest running
// host. The window trades parking against spread. On the live-cluster
// workload's shape (QBC, pessimistic log, 8 hosts × 20 000 operations,
// seeds 1001–1020, a 2-vCPU Xeon guest) the median cluster read
// 99/102/100/99/93/82 ms at W = 4/8/16/32/64/128 (median of three runs
// each), against 138–161 ms for the yield per operation the gate
// replaced, while the median records per hand-off rose 22.9 → 23.4 → 26.5
// from W = 4 over 32 to 128: the time is flat up to 64, and a wider window
// buys ~10 % (82–90 against 81–98 ms in six alternations of 32 and 128)
// with ~14 % more records per hand-off and four times what a lagging host
// may hold back of every recovery-line frontier.
const skewWindow = 32

// The gate's word packs the published minimum (the low minBits bits) with
// a join epoch (the bits above).
const (
	minBits = 48
	minMask = 1<<minBits - 1
	epoch   = 1 << minBits

	// idle is the minimum, and a host's count, while the host does not
	// run: a joiner before it joins, any host after it retires. It is above
	// every count, so it holds nothing back and passes every await.
	idle int64 = minMask
)

// gate keeps the live cluster's hosts within skewWindow operations of one
// another, so no host runs ahead, retires early and pins every
// recovery-line frontier at its last index until the final drain.
//
// The fast path takes no lock. Each host counts the operations it was
// admitted to in its own padded slot; the word publishes a lower bound of
// the minimum over the running hosts' counts, which only a host that was at
// it (or a retiring one) recomputes, in one scan of the slots. A host too
// far ahead parks on cond, and only a raise of the minimum, with somebody
// parked, broadcasts. A joiner enters at the published minimum, so it
// stalls nobody, and bumps the epoch in the same compare-and-swap, so a
// raise computed from a scan that missed it fails and scans again.
//
// The gate only schedules: every protocol event still runs under
// Cluster.mu. No gate method is called with Cluster.mu held, and the
// gate's own mu is a leaf that only pairs with cond.
type gate struct {
	// counts has one slot per host the run can have (Hosts + Joins): the
	// operations the host was admitted to, or idle while it does not run.
	//
	//guard:none atomics; a slot is written only by its host's goroutine, after newGate
	counts []paddedCount

	// word is the published minimum and the join epoch. The minimum never
	// exceeds a running host's count, only rises while a host runs, and
	// reads idle once every host has retired.
	//
	//guard:none atomic
	word atomic.Uint64

	// waiters counts the goroutines parked (or about to park) on cond; a
	// raise broadcasts only when it is non-zero.
	//
	//guard:none atomic
	waiters atomic.Int32

	mu sync.Mutex

	//guard:none sync.Cond synchronizes itself; L is set once by newGate
	cond sync.Cond
}

// paddedCount keeps each host's count on its own cache line: every host
// writes its slot on every operation.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// newGate returns a gate with slots for capacity hosts, the first running
// of which run from count 0.
func newGate(running, capacity int) *gate {
	g := &gate{counts: make([]paddedCount, capacity)}
	for h := running; h < capacity; h++ {
		g.counts[h].n.Store(idle)
	}
	g.cond.L = &g.mu
	return g
}

func minOf(w uint64) int64 { return int64(w & minMask) }

// minimum returns the published minimum.
func (g *gate) minimum() int64 { return minOf(g.word.Load()) }

// admit waits until host h is fewer than skewWindow operations ahead of
// the minimum and counts its next operation. A host that was at the
// minimum recomputes it.
func (g *gate) admit(h mobile.HostID) {
	slot := &g.counts[h].n
	n := slot.Load()
	g.await(n - skewWindow + 1)
	slot.Store(n + 1)
	if n <= g.minimum() {
		g.raise()
	}
}

// retire takes host h out of the minimum: its operations have ended.
func (g *gate) retire(h mobile.HostID) {
	g.counts[h].n.Store(idle)
	g.raise()
}

// join enters host h at the published minimum, or at 0 once every host
// has retired. The store precedes the compare-and-swap that bumps the
// epoch, so a raise either scans the slot or fails and scans again.
func (g *gate) join(h mobile.HostID) {
	for {
		w := g.word.Load()
		at := minOf(w)
		if at == idle {
			at = 0
		}
		g.counts[h].n.Store(at)
		if g.word.CompareAndSwap(w, (w&^minMask+epoch)|uint64(at)) {
			return
		}
	}
}

// await blocks until the published minimum reaches target, or every host
// has retired.
func (g *gate) await(target int64) {
	if g.minimum() >= target {
		return
	}
	g.mu.Lock()
	g.waiters.Add(1)
	for g.minimum() < target {
		g.cond.Wait()
	}
	g.waiters.Add(-1)
	g.mu.Unlock()
}

// raise publishes the minimum over the slots while it is above the
// published one, then wakes the waiters if there are any. It scans again
// after each publication: a host that stepped past the scanned minimum
// before the publication was visible did not recompute, and nobody else
// would.
func (g *gate) raise() {
	raised := false
	for {
		w := g.word.Load()
		m := idle
		for i := range g.counts {
			m = min(m, g.counts[i].n.Load())
		}
		if m <= minOf(w) {
			break
		}
		if g.word.CompareAndSwap(w, w&^minMask|uint64(m)) {
			raised = true
		}
	}
	if raised && g.waiters.Load() > 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}
