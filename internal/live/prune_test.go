package live

import (
	"fmt"
	"testing"

	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/trace"
)

// A hand-off ships the suffix a recovery could still replay, not the
// host's history: the records per cell switch stay under an absolute
// bound however long the cluster runs (the unpruned log shipped ≈ 1 470
// per hand-off at 20 000 operations per host and ≈ 2 900 at 40 000,
// growing with the run), and what is left still recovers every host.
//
// The figure is the scheduler's as much as the rule's: the frontier is
// held by the host with the lowest index, and a host whose goroutine runs
// ahead of the others and retires early keeps its last index — and so
// everybody's frontier — until the final drain. Of some 700 runs of this
// configuration most read 10–110, about one in a hundred over 250 and two
// over the bound (445, 688: a host done by mid-run), so a run over the
// bound gets two more tries; the whole log reads 1 445 ± 3 % every time.
func TestHandoffLogBounded(t *testing.T) {
	for _, ops := range []int{20_000, 40_000} {
		t.Run(fmt.Sprint(ops), func(t *testing.T) {
			cfg := loggedConfig(mlog.Pessimistic)
			cfg.OpsPerHost = ops
			var c *Cluster
			var k Counters
			for try := 1; ; try++ {
				c = runCluster(t, cfg, qbcFactory)
				k = c.Counters()
				if k.Switches == 0 {
					t.Fatal("no host switched cells")
				}
				per := float64(k.LogRecords) / float64(k.Switches)
				if per < 400 {
					break
				}
				if try == 3 {
					t.Fatalf("%d hand-offs shipped %d log records, %.0f each, on the third try as well; want < 400 at any run length",
						k.Switches, k.LogRecords, per)
				}
				t.Logf("try %d: %.0f records per hand-off", try, per)
			}
			lk := c.MLog().Counters()
			if lk.Pruned <= 0 {
				t.Errorf("hand-offs pruned %d entries", lk.Pruned)
			}
			if kept := c.MLog().StableEntries(); lk.Pruned+kept != lk.FlushedEntries {
				t.Errorf("pruned %d + retained %d != %d entries made stable", lk.Pruned, kept, lk.FlushedEntries)
			}
			if k.Undrained != 0 || k.DecodeErrors != 0 || k.StateErrors != 0 {
				t.Fatalf("undrained %d, decode errors %d, state errors %d", k.Undrained, k.DecodeErrors, k.StateErrors)
			}
			// Recover reads the finished store, trace and log and only adds
			// re-baselined images, so one cluster serves every failure.
			for h := 0; h < cfg.Hosts; h++ {
				if _, err := c.Recover(mobile.HostID(h)); err != nil {
					t.Fatalf("failure of host %d: %v", h, err)
				}
				if _, err := c.VerifyImages(); err != nil {
					t.Fatalf("after recovering host %d: %v", h, err)
				}
			}
		})
	}
}

// Only index-based protocols have a frontier to prune at: TP's recovery
// lines are not index cuts, so its log stays whole on the live cluster
// exactly as it does under the simulator's GC tick.
func TestLogStaysWholeWithoutIndexLines(t *testing.T) {
	cfg := loggedConfig(mlog.Pessimistic)
	cfg.OpsPerHost = 2000
	c := runCluster(t, cfg, tpFactory)
	lk := c.MLog().Counters()
	if lk.Pruned != 0 || c.MLog().StableEntries() != lk.FlushedEntries {
		t.Fatalf("TP's log was pruned: %d entries discarded, %d of %d retained",
			lk.Pruned, c.MLog().StableEntries(), lk.FlushedEntries)
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
}

// The soundness sweep behind the pruning rule: whatever host fails, every
// delivery its rollback undoes and the log had made stable — read off the
// trace, not off the log — is still in the log, and is what the recovery
// replays.
func TestPruneNeverLosesReplayable(t *testing.T) {
	var rollbacks, replayed, unflushed int
	var pruned int64
	for _, proto := range []struct {
		name string
		mk   NewProtocol
	}{{"BCS", bcsFactory}, {"QBC", qbcFactory}} {
		for _, mode := range []mlog.Mode{mlog.Pessimistic, mlog.Optimistic} {
			for _, joins := range []int{0, 2} {
				for seed := uint64(1); seed <= 8; seed++ {
					cfg := loggedConfig(mode)
					cfg.Seed = seed
					cfg.Joins = joins
					c := runCluster(t, cfg, proto.mk)
					lg, tr := c.MLog(), c.Trace()
					pruned += lg.Counters().Pruned
					for f := 0; f < cfg.Hosts+joins; f++ {
						rep, err := c.Recover(mobile.HostID(f))
						if err != nil {
							t.Fatalf("%s %v joins=%d seed=%d: failure of host %d: %v", proto.name, mode, joins, seed, f, err)
						}
						for h, seqs := range undoneStable(tr, lg, rep.Cut) {
							if rep.Cut[h] == recovery.End {
								continue
							}
							rollbacks++
							replayed += len(seqs)
							if lg.StableBound(mobile.HostID(h)) < lg.AppendedCount(mobile.HostID(h)) {
								unflushed++ // the host's log ends in a suffix no recovery may replay
							}
							for _, seq := range seqs {
								if lg.EntryAt(mobile.HostID(h), seq) == nil {
									t.Fatalf("%s %v joins=%d seed=%d, failure of host %d: host %d restores ordinal %d, which undoes delivery %d — pruned (log retained from %d)",
										proto.name, mode, joins, seed, f, h, rep.Cut[h], seq, lg.RetainedFrom(mobile.HostID(h)))
								}
							}
							if got := rep.Replayed[mobile.HostID(h)]; got != len(seqs) {
								t.Fatalf("%s %v joins=%d seed=%d, failure of host %d: host %d replayed %d entries, the trace has %d undone stable deliveries",
									proto.name, mode, joins, seed, f, h, got, len(seqs))
							}
						}
					}
				}
			}
		}
	}
	if pruned == 0 || rollbacks == 0 || replayed == 0 || unflushed == 0 {
		t.Fatalf("the sweep exercised nothing: %d entries pruned, %d rollbacks (%d with an unflushed log suffix), %d entries replayed",
			pruned, rollbacks, unflushed, replayed)
	}
	t.Logf("%d rollbacks (%d with an unflushed log suffix) replayed %d entries out of logs that had pruned %d", rollbacks, unflushed, replayed, pruned)
}

// undoneStable returns, per host, the per-host delivery ordinals the cut
// undoes (RecvCount past the restored ordinal) that had reached the
// stable log — derived from the trace alone.
func undoneStable(tr *trace.Trace, lg *mlog.Log, cut recovery.Cut) [][]int {
	out := make([][]int, len(cut))
	next := make([]int, len(cut))
	for i := range tr.Len() {
		ev := tr.Event(i)
		seq := next[ev.To]
		next[ev.To]++
		if cut[ev.To] != recovery.End && ev.RecvCount > cut[ev.To] && seq < lg.StableBound(ev.To) {
			out[ev.To] = append(out[ev.To], seq)
		}
	}
	return out
}
