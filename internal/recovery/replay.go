package recovery

import (
	"sort"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// This file is the replay-aware side of the recovery analysis: with
// MSS-resident message logging (internal/mlog), a delivered message that
// reached stable storage survives any rollback, which changes both the
// orphan relation (PropagateReplay) and the computation a failure undoes
// (MeasureReplay).

// LoggedFunc reports whether the seq-th delivery to host to (0-based,
// counting deliveries to that host in trace order) is stably logged at
// an MSS. mlog-backed implementations return seq < log.StableBound(to).
// The answer must not change while a recovery is being computed.
type LoggedFunc func(to mobile.HostID, seq int) bool

// PropagateReplay runs orphan-elimination to a fixpoint like Propagate,
// except that a message whose delivery is stably logged never rolls its
// receiver back: even with the send undone, the message content and its
// delivery order survive on MSS stable storage, so the receiver's state
// stays justified and the message is re-deliverable on re-execution.
// With logged == nil it is Propagate.
func PropagateReplay(tr *trace.Trace, seed Cut, logged LoggedFunc) (Cut, int) {
	return eliminate(tr, seed, logged)
}

// UnloggedOrphans counts the messages of tr that are orphan with respect
// to cut and not stably logged — the residue that would make a
// replay-aware cut inconsistent. PropagateReplay's fixpoint has zero.
// With logged == nil it counts what Orphans counts, reading only the
// sends cut undoes.
func UnloggedOrphans(tr *trace.Trace, cut Cut, logged LoggedFunc) int {
	ix := index(tr, cut)
	n := 0
	for h, x := range cut {
		s := ix.Sends[h]
		for i := len(s) - 1; i >= 0 && int(s[i].SendCount) > x; i-- {
			e := s[i]
			if int(e.RecvCount) <= cut[e.To] && (logged == nil || !logged(mobile.HostID(e.To), int(ix.Seq[e.Pos]))) {
				n++
			}
		}
	}
	return n
}

// ReplayMetrics extends Metrics with the outcome of log-based replay.
type ReplayMetrics struct {
	Metrics
	// ReplayedMessages is the number of undone receives reconstructed
	// from stable MSS logs instead of being lost.
	ReplayedMessages int
	// ReplayedTime is the computation reconstructed by replay, summed
	// over hosts: the span between each restored checkpoint and the last
	// delivery replayed on it. Metrics.UndoneTime is already net of it.
	ReplayedTime des.Time
}

// MeasureReplay computes the cost of restoring cut when rolled-back
// hosts replay their stably logged deliveries. Each host restores its
// checkpoint and re-delivers, in the original order, the logged messages
// whose receive the rollback undid; under the piecewise-deterministic
// assumption the replay reconstructs the computation up to the first
// undone delivery that is not logged (a gap ends determinized replay).
// Undone time and undone messages count only what replay cannot recover.
func MeasureReplay(tr *trace.Trace, cut Cut, chains func(mobile.HostID) []*storage.Record, failTime des.Time, dominoSteps int, logged LoggedFunc) ReplayMetrics {
	ix := index(tr, cut)
	m := ReplayMetrics{Metrics: Metrics{DominoSteps: dominoSteps}}
	for h, x := range cut {
		if x == End {
			continue
		}
		m.RolledBackHosts++
		var restoredAt des.Time
		if chain := chains(mobile.HostID(h)); x < len(chain) {
			restoredAt = chain[x].TakenAt
		}
		// The receives the rollback undoes are a suffix of h's deliveries
		// (RecvCount never decreases along them); a delivery's offset in
		// the list is its ordinal.
		recvs := ix.Recvs[h]
		first := undoneFrom(tr, recvs, x)
		undone := recvs[first:]
		// frontier is the time replay reconstructs h up to: deliveries
		// replay in their original order, so the first undone one that is
		// not logged ends the replayable prefix and everything from there
		// on is lost.
		frontier := restoredAt
		replayed := 0
		if logged != nil {
			for replayed < len(undone) && logged(mobile.HostID(h), first+replayed) {
				if at := tr.DeliveredAt(int(undone[replayed])); at > frontier {
					frontier = at
				}
				replayed++
			}
		}
		m.ReplayedMessages += replayed
		m.UndoneMessages += len(undone) - replayed
		lost := failTime - frontier
		m.UndoneTime += lost
		m.ReplayedTime += frontier - restoredAt
		if lost > m.MaxRollback {
			m.MaxRollback = lost
		}
	}
	return m
}

// undoneFrom returns the offset in recvs, one host's deliveries, of the
// first whose RecvCount exceeds x: where the suffix a rollback to
// checkpoint x undoes starts. The search gallops back from the end, so it
// reads O(log u) counts for a rollback that undoes u deliveries, mostly
// recent ones, however long the host's list is.
func undoneFrom(tr *trace.Trace, recvs []int32, x int) int {
	hi, step := len(recvs), 1 // recvs[hi:] are undone
	for hi-step >= 0 && tr.RecvCount(int(recvs[hi-step])) > x {
		hi -= step
		step *= 2
	}
	lo := max(hi-step, -1) // recvs[lo] is kept (or lo = -1)
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return tr.RecvCount(int(recvs[lo+1+i])) > x })
}
