package recovery

import (
	"math"
	"slices"
	"testing"

	"mobickpt/internal/rng"
)

// FuzzPropagate holds the indexed propagation to the full-scan references
// on executions and cuts the fuzzer chooses: the host and message counts,
// the trace seed and shape feed randomTrace, pred picks the logging
// predicate (off / pessimistic / optimistic / unflushed) and restore has
// one byte per host — its restore point as a share of the host's chain,
// 0xff for End. PropagateReplay, Propagate and UnloggedOrphans must
// return the reference's cut, step count and orphan counts.
func FuzzPropagate(f *testing.F) {
	f.Add(uint8(5), uint16(200), uint64(1), false, uint8(0), []byte{0x80, 0xff, 0x10})
	f.Add(uint8(8), uint16(400), uint64(7), false, uint8(2), []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(12), uint16(5000), uint64(44), true, uint8(0), []byte{0xc0, 0xff, 0xff, 0x40})
	f.Add(uint8(10), uint16(5000), uint64(45), true, uint8(3), []byte{0xff, 0xff, 0xe0})
	f.Add(uint8(2), uint16(0), uint64(3), false, uint8(1), []byte{0})

	f.Fuzz(func(t *testing.T, hosts uint8, msgs uint16, seed uint64, deep bool, pred uint8, restore []byte) {
		src := rng.New(seed)
		m := int(msgs) % 6001
		e := randomTrace(src, 2+int(hosts)%15, int(seed%3), m, deep)
		n := e.tr.NumHosts()

		var logged LoggedFunc
		bound := make([]int, n)
		switch pred % 4 {
		case 1: // pessimistic: every delivery stable
			for h := range bound {
				bound[h] = math.MaxInt
			}
			logged = stableBounds(bound)
		case 2: // optimistic: a stable prefix per host
			for h := range bound {
				bound[h] = src.Intn(m/5 + 1)
			}
			logged = stableBounds(bound)
		case 3: // a log that never flushed
			logged = stableBounds(bound)
		}
		start := NewCut(n)
		for h, b := range restore[:min(len(restore), n)] {
			if b != 0xff {
				start[h] = int(b) * len(e.chains[h]) / 0xff
			}
		}

		wantCut, wantSteps := propagateReference(e.tr, start, logged)
		gotCut, gotSteps := PropagateReplay(e.tr, start, logged)
		if gotSteps != wantSteps || !slices.Equal(gotCut, wantCut) {
			t.Fatalf("from %v got %v in %d steps, reference %v in %d", start, gotCut, gotSteps, wantCut, wantSteps)
		}
		if logged == nil {
			if c, s := Propagate(e.tr, start); s != wantSteps || !slices.Equal(c, wantCut) {
				t.Fatalf("Propagate from %v got %v in %d steps, reference %v in %d", start, c, s, wantCut, wantSteps)
			}
		}
		for _, cut := range []Cut{start, gotCut} {
			if got, want := UnloggedOrphans(e.tr, cut, logged), unloggedOrphansReference(e.tr, cut, logged); got != want {
				t.Fatalf("unlogged orphans of %v = %d, reference %d", cut, got, want)
			}
		}
	})
}
