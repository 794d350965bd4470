// Package recovery builds and validates recovery lines over recorded
// executions. The paper's §6 leaves "the evaluation of the recovery time
// and of the amount of undone computation" as future work; this package
// implements that evaluation as an extension experiment (E8 in
// DESIGN.md).
//
// Three constructions are provided:
//
//   - IndexCut: the same-sequence-number rule of the index-based
//     protocols (BCS/QBC, §4.2) — each host contributes its first live
//     checkpoint with index >= x; hosts that never reached index x do
//     not roll back.
//   - VectorCut: the dependency-vector rule of TP (§4.1) used as a
//     rollback starting point.
//   - Propagate: the classic orphan-elimination fixpoint. Starting from
//     any cut it repeatedly rolls receivers of orphan messages back
//     until no orphan remains; the result is consistent by construction.
//     On uncoordinated checkpoints it exhibits the domino effect the
//     paper warns about.
//
// Consistency of any cut can be checked independently with Orphans.
package recovery

import (
	"fmt"
	"math"
	"math/bits"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// End marks a host that does not roll back: its entire history, volatile
// state included, is kept.
const End = math.MaxInt

// Cut is a restoration target: Cut[h] is the ordinal of the checkpoint
// host h restores (its events after that checkpoint are undone), or End
// if h does not roll back.
type Cut []int

// NewCut returns a cut of n hosts, all at End.
func NewCut(n int) Cut {
	c := make(Cut, n)
	for i := range c {
		c[i] = End
	}
	return c
}

// Clone returns an independent copy.
func (c Cut) Clone() Cut {
	o := make(Cut, len(c))
	copy(o, c)
	return o
}

// RolledBack returns the number of hosts with a finite restore point.
func (c Cut) RolledBack() int {
	n := 0
	for _, x := range c {
		if x != End {
			n++
		}
	}
	return n
}

// Orphans counts the messages of tr that are orphan with respect to cut:
// send undone (SendCount > cut[from]) but receive kept
// (RecvCount <= cut[to]). A cut is consistent iff Orphans returns 0. It
// tests every message, reading the index's send records, which hold
// both counts and the receiver side by side.
func Orphans(tr *trace.Trace, cut Cut) int {
	n := 0
	for from, sends := range tr.Index().Sends {
		for _, e := range sends {
			if int(e.SendCount) > cut[from] && int(e.RecvCount) <= cut[e.To] {
				n++
			}
		}
	}
	return n
}

// index returns tr's index for a function about to read cut against it.
// The trace's host count is the one width a cut may have: a narrower cut
// (sized before hosts joined) would otherwise fail as an out-of-range
// read somewhere inside a loop.
func index(tr *trace.Trace, cut Cut) *trace.Index {
	ix := tr.Index()
	if len(cut) != len(ix.Sends) {
		panic(fmt.Sprintf("recovery: cut spans %d hosts, the trace has %d", len(cut), len(ix.Sends)))
	}
	return ix
}

// Propagate runs orphan-elimination to a fixpoint: while some message's
// send is undone but its receive kept, the receiver rolls back to the
// checkpoint preceding the receive (ordinal RecvCount-1, which always
// exists because every host takes an initial checkpoint). It returns the
// resulting consistent cut and the number of elimination steps (extra
// rollbacks beyond the seed — the domino measure).
func Propagate(tr *trace.Trace, seed Cut) (Cut, int) {
	return eliminate(tr, seed, nil)
}

// eliminate is the orphan-elimination core shared by Propagate and
// PropagateReplay. It sweeps two position bitmaps over the trace's
// index, so it costs O(hosts + U + R·L/64) for the U sends the recovery
// undoes, R rounds and L trace events — not the reference algorithm's
// full-trace rescans, nor a pass over the history to find the undone
// part — yet reproduces the reference's step count *exactly*, because
// DominoSteps is observable (E8) and depends on evaluation order.
//
// The reference repeatedly sweeps the trace in delivery order, applying
// eliminations as it encounters them, until a sweep changes nothing. This
// replays precisely those evaluation moments that can act: an event is
// eligible only once its send is undone, which (cuts only ever decrease)
// happens at most once, when cut[From] first drops below its SendCount.
// At that moment the sweep, standing at position pos, would next evaluate
// it in the current round if its position is past pos, in the next round
// otherwise — never later. So at most two rounds are ever pending: cur
// holds the current one, scanned upward from pos+1 a word at a time, and
// next the one after; when cur runs dry the two swap and the scan starts
// over at position 0. That pops events in exactly the reference's (round,
// position) order; everything a full sweep would merely re-inspect
// without acting is never touched.
//
// An event is marked at most once, and only if it can still act:
// send-undoneness is permanent, and an event whose receive is already
// undone or whose delivery is stably logged when its send falls can never
// be an orphan again (cuts only fall, the log does not change under a
// recovery), so the sweep would pass over it at every later visit.
// Leaving it out removes a pop that does nothing and moves no pop that
// does something, so the acting evaluations, and with them the step
// count, are those of the reference.
func eliminate(tr *trace.Trace, seed Cut, logged LoggedFunc) (Cut, int) {
	ix := index(tr, seed)
	cut := seed.Clone()

	// lo[h] marks the suffix of ix.Sends[h] already examined.
	lo := make([]int, len(cut))
	for h := range lo {
		lo[h] = len(ix.Sends[h])
	}

	// cur and next are allocated on the first mark: a recovery that
	// propagates nothing allocates nothing for them.
	var cur, next []uint64
	pos, pending := -1, 0
	push := func(h int) {
		s := ix.Sends[h]
		i := lo[h]
		for i > 0 && int(s[i-1].SendCount) > cut[h] {
			i--
		}
		for _, e := range s[i:lo[h]] {
			if int(e.RecvCount) > cut[e.To] {
				continue // receive already undone; permanently not an orphan
			}
			if logged != nil && logged(mobile.HostID(e.To), int(ix.Seq[e.Pos])) {
				continue // stably logged deliveries survive any rollback
			}
			if cur == nil {
				words := (tr.Len() + 63) / 64
				cur, next = make([]uint64, words), make([]uint64, words)
			}
			b := cur
			if int(e.Pos) <= pos {
				b = next
			}
			b[e.Pos>>6] |= 1 << (e.Pos & 63)
			pending++
		}
		lo[h] = i
	}
	for h := range cut {
		push(h)
	}

	steps := 0
	// Pops ascend within a round: read them from the chunk the last one
	// came from while they are in it.
	var tos, rcs []int32
	base := 0
	for ; pending > 0; pending-- {
		p := nextSet(cur, pos+1)
		if p < 0 {
			cur, next = next, cur
			p = nextSet(cur, 0)
		}
		cur[p>>6] &^= 1 << (p & 63)
		pos = p
		j := p - base
		if uint(j) >= uint(len(rcs)) {
			tos, rcs, base = tr.Receipts(p)
			j = p - base
		}
		to, rc := tos[j], int(rcs[j])
		if rc > cut[to] {
			continue // undone since it was marked
		}
		cut[to] = rc - 1
		steps++
		push(int(to))
	}
	return cut, steps
}

// nextSet returns the first position at or after from whose bit is set
// in b, or -1.
func nextSet(b []uint64, from int) int {
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	for m := b[w] &^ (1<<(from&63) - 1); ; m = b[w] {
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
		if w++; w == len(b) {
			return -1
		}
	}
}

// FailureCut seeds recovery after a crash of host failed: the failed host
// restores its latest live checkpoint (its volatile state is lost); every
// other host initially keeps everything. Run Propagate on the result to
// obtain a consistent cut.
func FailureCut(store *storage.Store, n int, failed mobile.HostID) Cut {
	cut := NewCut(n)
	if rec := store.LatestLive(failed); rec != nil {
		cut[failed] = int(rec.Ordinal)
	} else {
		cut[failed] = 0
	}
	return cut
}

// IndexCut builds the recovery line of the index-based protocols for
// index x: each host restores its first live checkpoint with index >= x;
// hosts whose chain never reaches x keep everything (their state cannot
// depend on any index >= x, §4.2). The line is consistent by the theorem
// of [7]; tests verify Orphans == 0 on random executions.
func IndexCut(store *storage.Store, n int, x int) Cut {
	cut := NewCut(n)
	for h := 0; h < n; h++ {
		if rec := store.FirstWithIndexAtLeast(mobile.HostID(h), x); rec != nil {
			cut[h] = int(rec.Ordinal)
		}
	}
	return cut
}

// LatestIndexCut returns the most recent index-based recovery line that
// involves the failed host: the line at the index of the failed host's
// latest live checkpoint, which is the line the host restores after a
// crash.
func LatestIndexCut(store *storage.Store, n int, failed mobile.HostID) Cut {
	rec := store.LatestLive(failed)
	if rec == nil {
		return NewCut(n)
	}
	cut := IndexCut(store, n, int(rec.Index))
	// The failed host itself restores that latest checkpoint even if an
	// earlier one shares the index (cannot happen for live chains, whose
	// indices strictly increase; kept for defense in depth).
	cut[failed] = int(rec.Ordinal)
	return cut
}

// VectorCut seeds recovery for TP after a crash of host failed, given
// ckpt, the CKPT dependency vector TP stored with the failed host's latest
// live checkpoint C: the failed host restores C; every other host j aims
// at its first checkpoint with index > CKPT[j] (the first checkpoint
// taken after the last event of j that C depends on), or keeps everything
// if no such checkpoint exists. The seed already eliminates the orphans
// the dependency vectors can see; Propagate removes any residue (bounded,
// by Russell's receive-before-send interval structure). A vector is as
// wide as the world was when C was taken: a host that joined since is one
// C never heard from, CKPT[j] = -1.
func VectorCut(store *storage.Store, ckpt []int, n int, failed mobile.HostID) Cut {
	cut := FailureCut(store, n, failed)
	for j := 0; j < n; j++ {
		if mobile.HostID(j) == failed {
			continue
		}
		x := -1
		if j < len(ckpt) {
			x = ckpt[j]
		}
		if r := store.FirstWithIndexAtLeast(mobile.HostID(j), x+1); r != nil {
			cut[j] = int(r.Ordinal)
		}
	}
	return cut
}

// Metrics quantifies the cost of restoring a cut — the figures the
// paper's future work calls for.
type Metrics struct {
	// RolledBackHosts is the number of hosts with a finite restore point.
	RolledBackHosts int
	// UndoneTime is the total computation time lost, summed over hosts:
	// failure time minus the restored checkpoint's timestamp.
	UndoneTime des.Time
	// MaxRollback is the largest single-host rollback in time units.
	MaxRollback des.Time
	// UndoneMessages counts delivered messages whose receive was undone.
	UndoneMessages int
	// DominoSteps is the number of orphan-elimination steps Propagate
	// needed beyond the seed (0 for an on-the-fly consistent line).
	DominoSteps int
}

// Measure computes Metrics for cut over an execution that failed at
// failTime. chains supplies each host's checkpoint chain (in creation
// order); dominoSteps is threaded through from Propagate. It is
// MeasureReplay with nothing to replay.
func Measure(tr *trace.Trace, cut Cut, chains func(mobile.HostID) []*storage.Record, failTime des.Time, dominoSteps int) Metrics {
	return MeasureReplay(tr, cut, chains, failTime, dominoSteps, nil).Metrics
}

// MaximalCut computes the best possible recovery line after a crash of
// host failed: the supremum of all consistent cuts in which the failed
// host restores its latest live checkpoint and every other host keeps as
// much as possible. Orphan elimination is monotone on the lattice of
// cuts and FailureCut dominates every admissible cut, so the propagation
// fixpoint from that seed *is* the maximum — the yardstick protocol
// recovery lines are measured against (no protocol can undo less).
func MaximalCut(tr *trace.Trace, store *storage.Store, n int, failed mobile.HostID) Cut {
	cut, _ := Propagate(tr, FailureCut(store, n, failed))
	return cut
}

// Dominates reports whether cut keeps at least as much computation as
// other on every host (cut[h] >= other[h], with End as infinity).
func (c Cut) Dominates(other Cut) bool {
	if len(c) != len(other) {
		panic("recovery: cut width mismatch")
	}
	for h := range c {
		if c[h] < other[h] {
			return false
		}
	}
	return true
}
