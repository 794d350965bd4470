package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobickpt/internal/mobile"
)

// waitFor fails the test if done does not close within a generous bound:
// a hang in the gate shows as a named failure, not as the package timeout.
func waitFor(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	//lint:allow simlint/detlint wall-clock watchdog guarding the test harness itself, not simulated time
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10 s", what)
	}
}

// parked reports, by yielding until it is, whether somebody is parked on
// the gate.
func parked(g *gate) bool {
	for range 100_000 {
		if g.waiters.Load() > 0 {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// The bound itself: hosts step the gate at uneven speeds, and an observer
// reading each count and then the published minimum never finds a host
// more than skewWindow ahead of it, nor a running host below a minimum it
// read before the count.
func TestGateBoundsSkew(t *testing.T) {
	const hosts, steps = 6, 3000
	g := newGate(hosts, hosts)
	var wg sync.WaitGroup
	for h := range hosts {
		wg.Add(1)
		go func(h mobile.HostID) {
			defer wg.Done()
			for i := range steps * (1 + int(h)%3) {
				g.admit(h)
				if int(h) == 0 && i%64 == 0 {
					for range 50 {
						runtime.Gosched() // a slow host holds the others back
					}
				}
			}
			g.retire(h)
		}(mobile.HostID(h))
	}
	stop := make(chan struct{})
	var checks atomic.Int64
	observer := make(chan struct{})
	go func() {
		defer close(observer)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for h := range hosts {
				lo := g.minimum()
				n := g.counts[h].n.Load()
				m := g.minimum()
				if n == idle {
					continue
				}
				if n > m+skewWindow {
					t.Errorf("host %d at %d, %d ahead of the minimum %d (window %d)", h, n, n-m, m, skewWindow)
					return
				}
				if n < lo {
					t.Errorf("host %d at %d, below the minimum %d read before it", h, n, lo)
					return
				}
				checks.Add(1)
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitFor(t, done, "hosts stepping the gate")
	close(stop)
	<-observer
	if m := g.minimum(); m != idle {
		t.Fatalf("every host retired, the minimum reads %d, want idle", m)
	}
	if checks.Load() == 0 {
		t.Fatal("the observer checked nothing")
	}
}

// A host that runs out its window parks until the slowest host moves, and
// the slowest host retiring releases it.
func TestGateRetireReleasesWaiters(t *testing.T) {
	g := newGate(2, 2)
	for range skewWindow {
		g.admit(1)
	}
	done := make(chan struct{})
	go func() {
		g.admit(1) // host 0 has done nothing: one over the window
		close(done)
	}()
	if !parked(g) {
		t.Fatal("a host skewWindow ahead of the minimum did not park")
	}
	select {
	case <-done:
		t.Fatal("a host went more than skewWindow ahead of the slowest")
	default:
	}
	g.retire(0)
	waitFor(t, done, "the waiter after the slowest host retired")
	if n := g.counts[1].n.Load(); n != skewWindow+1 {
		t.Fatalf("host 1 at %d, want %d", n, skewWindow+1)
	}
}

// A join waits for the slowest host's count, and is released by it
// reaching the count or by every host retiring.
func TestGateJoinWaitsForTheSlowest(t *testing.T) {
	g := newGate(2, 3)
	done := make(chan struct{})
	go func() {
		g.await(10)
		close(done)
	}()
	for range 10 {
		g.admit(0)
	}
	if !parked(g) {
		t.Fatal("the join did not wait for the slowest host")
	}
	for range 10 {
		g.admit(1)
	}
	waitFor(t, done, "a join whose count the slowest host reached")

	done = make(chan struct{})
	go func() {
		g.await(1000)
		close(done)
	}()
	if !parked(g) {
		t.Fatal("the join did not wait for the slowest host")
	}
	g.retire(0)
	g.retire(1)
	waitFor(t, done, "a join after every host retired")
}

// A joiner enters at the slowest running host's count, so it stalls
// nobody; retired hosts do not count.
func TestGateJoinEntersAtTheMinimum(t *testing.T) {
	g := newGate(3, 4)
	for range 10 {
		g.admit(0)
	}
	for range 12 {
		g.admit(1)
	}
	for range 3 {
		g.admit(2)
	}
	g.retire(2)
	g.join(3)
	if n := g.counts[3].n.Load(); n != 10 {
		t.Fatalf("the joiner entered at %d, want the minimum 10", n)
	}
	// Host 1 may still go skewWindow past the joiner.
	done := make(chan struct{})
	go func() {
		for range skewWindow - 2 {
			g.admit(1)
		}
		close(done)
	}()
	waitFor(t, done, "a host within the window of a joiner")
}

// A joiner that arrives after every host has retired neither parks nor
// takes the idle minimum as its count, which would wrap it past every
// bound: it enters at 0 and runs alone.
func TestGateJoinAfterEveryHostRetired(t *testing.T) {
	g := newGate(2, 4)
	g.admit(0)
	g.retire(0)
	g.retire(1)
	g.join(2)
	if n := g.counts[2].n.Load(); n != 0 {
		t.Fatalf("the joiner entered at %d, want 0", n)
	}
	done := make(chan struct{})
	go func() {
		for range 4 * skewWindow {
			g.admit(2)
		}
		close(done)
	}()
	waitFor(t, done, "a joiner running alone")
	if n, m := g.counts[2].n.Load(), g.minimum(); n != 4*skewWindow || m != n {
		t.Fatalf("the joiner at %d, the minimum at %d, want both %d", n, m, 4*skewWindow)
	}
	// A second joiner now enters at the first one's count.
	g.join(3)
	if n := g.counts[3].n.Load(); n != 4*skewWindow {
		t.Fatalf("the second joiner entered at %d, want %d", n, 4*skewWindow)
	}
	g.retire(2)
	g.retire(3)
	if m := g.minimum(); m != idle {
		t.Fatalf("every host retired, the minimum reads %d, want idle", m)
	}
}

// Joins and retirements racing with running hosts, over many short
// rounds: nobody hangs, every host stays within the window above the
// minimum, and no running host — a joiner included — is ever below a
// minimum published before its count was read.
func TestGateConcurrentJoins(t *testing.T) {
	const hosts, joins, rounds = 4, 4, 200
	for round := range rounds {
		g := newGate(hosts, hosts+joins)
		run := func(h mobile.HostID, steps int) {
			for range steps {
				lo := g.minimum()
				n := g.counts[h].n.Load()
				if n < lo {
					t.Errorf("round %d: host %d at %d, below the minimum %d", round, h, n, lo)
				}
				g.admit(h)
				if n, m := g.counts[h].n.Load(), g.minimum(); n > m+skewWindow {
					t.Errorf("round %d: host %d at %d, minimum %d", round, h, n, m)
				}
			}
			g.retire(h)
		}
		var wg sync.WaitGroup
		for h := range hosts {
			wg.Add(1)
			go func(h mobile.HostID) { defer wg.Done(); run(h, 40+60*int(h)) }(mobile.HostID(h))
		}
		for j := range joins {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				g.await(int64(20 * (j + 1)))
				h := mobile.HostID(hosts + j)
				g.join(h)
				run(h, 100)
			}(j)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		waitFor(t, done, "hosts and joiners")
		if m := g.minimum(); m != idle {
			t.Fatalf("round %d: every host retired, the minimum reads %d, want idle", round, m)
		}
		if t.Failed() {
			return
		}
	}
}
