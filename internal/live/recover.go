package live

import (
	"fmt"
	"strconv"

	"mobickpt/internal/check"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protoside"
	"mobickpt/internal/recovery"
	"mobickpt/internal/statestore"
)

// RecoveryReport describes an executed rollback.
type RecoveryReport struct {
	Failed mobile.HostID
	Cut    recovery.Cut
	// Restored maps each rolled-back host to the checkpoint ordinal whose
	// image was reinstalled.
	Restored map[mobile.HostID]int
	// BytesRestored is the state volume shipped from stations to hosts.
	BytesRestored int64
	// DominoSteps is the propagation work beyond the seed line.
	DominoSteps int
	// Replayed maps each rolled-back host to the number of logged
	// messages it re-delivered past its restored checkpoint (message
	// logging only).
	Replayed map[mobile.HostID]int
	// ReplayedMessages is the total across Replayed.
	ReplayedMessages int
}

// Recover executes a crash recovery on a finished cluster: host failed
// loses its volatile state and the computation rolls back to a
// consistent cut: the protocol's recovery line over the recorded trace
// (protoside.Slot.RecoveryLine, the rule E8 and the decision logs' matrix
// read too). Every rolled-back host's memory
// image is located on the station group, checksum-verified, and
// reinstalled into the host state; the host then takes a fresh full
// checkpoint to re-baseline the incremental chain. The re-baseline is a
// data-plane operation only: protocol control state (indices, phases)
// restarts with the application when the computation resumes, exactly as
// a restarted process would re-read it from the restored checkpoint.
//
// With message logging enabled the line is the replay-aware one: a
// receive whose message is stably logged is not an orphan-producing
// event, so it never forces the receiver back. Each rolled-back host
// then replays its logged suffix, and the replay is reconciled against
// the trace (internal/check) before the report is returned.
//
// Call after Run has returned (the cluster is quiescent).
//
//locks:quiescent runs only after Run has returned; no goroutine is live
func (c *Cluster) Recover(failed mobile.HostID) (*RecoveryReport, error) {
	if int(failed) < 0 || int(failed) >= c.hosts {
		return nil, fmt.Errorf("live: no host %d", failed)
	}
	n := c.hosts
	sl := &c.side.Slots[0]
	if sl.Store.LatestLive(failed) == nil {
		return nil, fmt.Errorf("live: host %d has no stable checkpoint to restore", failed)
	}
	logged := protoside.Logged(sl.MLog)
	cut, steps := sl.RecoveryLine(n, failed, logged)
	if o := recovery.UnloggedOrphans(sl.Trace, cut, logged); o != 0 {
		return nil, fmt.Errorf("live: recovery cut still has %d orphans", o)
	}

	// The rollback flow links the failure to every host the cut rolls
	// back. The id space (bit 63 set, then a per-recovery ordinal) is
	// disjoint from the packet-id message flows.
	rollFlow := uint64(1)<<63 | c.nextID
	c.nextID++
	tl := c.cfg.Timeline
	c.tick++
	tl.FlowBegin(float64(c.tick), int(failed), "rollback-flow", rollFlow,
		"failed", strconv.Itoa(int(failed)))

	rep := &RecoveryReport{
		Failed:      failed,
		Cut:         cut,
		Restored:    make(map[mobile.HostID]int),
		Replayed:    make(map[mobile.HostID]int),
		DominoSteps: steps,
	}
	replayed := make(map[mobile.HostID][]mlog.Entry)
	for h, ord := range cut {
		if ord == recovery.End {
			continue
		}
		// In the live cluster checkpoint ordinals and data-plane sequence
		// numbers coincide (both count checkpoints from 0).
		im, _, err := c.group.FindImage(h, ord)
		if err != nil {
			return nil, fmt.Errorf("live: host %d: %w", h, err)
		}
		if err := im.Verify(); err != nil {
			return nil, fmt.Errorf("live: host %d: %w", h, err)
		}
		if err := c.states[h].Restore(im.Data); err != nil {
			return nil, fmt.Errorf("live: host %d: %w", h, err)
		}
		rep.BytesRestored += int64(len(im.Data))
		rep.Restored[mobile.HostID(h)] = ord
		c.tick++
		tl.Instant(float64(c.tick), h, "rollback", "to", strconv.Itoa(ord))
		tl.FlowStep(float64(c.tick), h, "rollback-flow", rollFlow)

		if sl.MLog != nil {
			entries := sl.MLog.ReplayFrom(mobile.HostID(h), ord)
			replayed[mobile.HostID(h)] = entries
			rep.Replayed[mobile.HostID(h)] = len(entries)
			rep.ReplayedMessages += len(entries)
		}

		// Re-baseline: the restored state becomes a fresh full checkpoint
		// so the incremental chain continues gap-free after recovery.
		seq := sl.Counts[h]
		sl.Counts[h]++
		delta := c.states[h].Checkpoint(seq, true)
		if _, err := c.group.Station(int(c.side.Station(mobile.HostID(h)))).Apply(h, delta); err != nil {
			return nil, fmt.Errorf("live: host %d re-baseline: %w", h, err)
		}
	}
	if sl.MLog != nil {
		if vs := check.ReplayReconciliation("live", sl.MLog, sl.Trace, cut, replayed); len(vs) > 0 {
			return nil, fmt.Errorf("live: replay reconciliation failed: %w", vs)
		}
	}
	c.replays.Add(int64(rep.ReplayedMessages))
	c.tick++
	tl.FlowEnd(float64(c.tick), int(failed), "rollback-flow", rollFlow,
		"restored", strconv.Itoa(len(rep.Restored)),
		"replayed", strconv.Itoa(rep.ReplayedMessages))
	// The depths are what the cut discards of the store's chains, which a
	// recovery leaves as they were; Counts already holds the re-baselines.
	chains := make([]int, n)
	for h := range chains {
		chains[h] = len(sl.Store.Chain(mobile.HostID(h)))
	}
	recovery.ObserveRollback(c.cfg.Metrics, "live", cut, chains)
	return rep, nil
}

// VerifyImages checksum-verifies every image the station group still
// holds and reports the number checked; every checkpoint the stations did
// not discard must still have one. Tests call it to assert end-to-end
// stable-storage integrity.
//
//locks:quiescent runs only after Run has returned; no goroutine is live
func (c *Cluster) VerifyImages() (int, error) {
	checked := 0
	for h := 0; h < c.hosts; h++ {
		// Every ordinal below the floor was discarded: FindImage would
		// only build an ErrDiscarded error for each.
		for ord := c.group.Floor(h); ord < c.side.Slots[0].Counts[h]; ord++ {
			im, _, err := c.group.FindImage(h, ord)
			if err != nil {
				return checked, err
			}
			if err := im.Verify(); err != nil {
				return checked, err
			}
			checked++
		}
	}
	return checked, nil
}

// stateOf exposes a host's live state for tests.
//
//locks:quiescent test accessor, used after Run returns
func (c *Cluster) stateOf(h mobile.HostID) *statestore.HostState { return c.states[h] }
