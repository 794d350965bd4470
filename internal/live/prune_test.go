package live

import (
	"fmt"
	"sync"
	"testing"

	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/statestore"
	"mobickpt/internal/trace"
)

// A hand-off ships the suffix a recovery could still replay, not the
// host's history: the records per cell switch stay under an absolute
// bound however long the cluster runs (the unpruned log shipped ≈ 1 470
// per hand-off at 20 000 operations per host and ≈ 2 900 at 40 000,
// growing with the run), and what is left still recovers every host.
//
// The frontier is held by the host with the lowest index, so the figure
// also bounds how far one host can run ahead of the others: the cluster's
// gate keeps every running host within skewWindow operations of the
// slowest, so no host retires early and pins everybody's frontier at its
// last index until the final drain. Every seed must stay under the bound,
// on its first run. The clusters run two at a time: each is one goroutine
// per host serialized on the cluster's mu, which leaves a second CPU
// mostly idle.
func TestHandoffLogBounded(t *testing.T) {
	for _, ops := range []int{20_000, 40_000} {
		t.Run(fmt.Sprint(ops), func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
					t.Parallel()
					cfg := loggedConfig(mlog.Pessimistic)
					cfg.OpsPerHost = ops
					cfg.Seed = seed
					c := runCluster(t, cfg, qbcFactory)
					k := c.Counters()
					if k.Switches == 0 {
						t.Fatal("no host switched cells")
					}
					per := float64(k.LogRecords) / float64(k.Switches)
					t.Logf("%.0f records per hand-off", per)
					if per >= 100 {
						t.Errorf("%d hand-offs shipped %d log records, %.0f each; want < 100 at any run length",
							k.Switches, k.LogRecords, per)
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
					}
					if _, err := c.VerifyImages(); err != nil {
						t.Fatalf("after recovering every host: %v", err)
					}
				})
			}
		})
	}
}

// Only index-based protocols have a frontier to prune at: TP's recovery
// lines are not index cuts, so its log and its station images stay whole
// on the live cluster exactly as its log and checkpoints do under the
// simulator's GC tick.
func TestLogStaysWholeWithoutIndexLines(t *testing.T) {
	cfg := loggedConfig(mlog.Pessimistic)
	cfg.OpsPerHost = 2000
	c := runCluster(t, cfg, tpFactory)
	lk := c.MLog().Counters()
	if lk.Pruned != 0 || c.MLog().StableEntries() != lk.FlushedEntries {
		t.Fatalf("TP's log was pruned: %d entries discarded, %d of %d retained",
			lk.Pruned, c.MLog().StableEntries(), lk.FlushedEntries)
	}
	total := 0
	for _, n := range c.side.Slots[0].Counts {
		total += n
	}
	if checked, err := c.VerifyImages(); err != nil || checked != total {
		t.Fatalf("TP's station images: %d of %d checkpoints verified (%v)", checked, total, err)
	}
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
}

// The station images go with the log: a logged cluster's hand-offs drop
// the switching host's images below its frontier, and after the final
// drain — which catches up the hosts that retired early and held every
// frontier at their index — the cluster collects every host's once more.
// What the group holds at the end then depends on the host and station
// counts, not on the run length: over three seeds, at 80 000 operations
// per host at most half again what it holds at 20 000 (the whole history
// grows about 3.9 times), and every host still recovers through the
// discarded prefixes. The cluster's gate keeps the hosts within
// skewWindow operations of one another, so the last host never runs long
// on its own and the gate holds under the race detector as well. The
// clusters run two at a time, as in TestHandoffLogBounded.
func TestStationImagesBounded(t *testing.T) {
	var mu sync.Mutex
	held := make(map[int]int64)
	t.Run("clusters", func(t *testing.T) {
		for _, ops := range []int{20_000, 80_000} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%d-seed%d", ops, seed), func(t *testing.T) {
					t.Parallel()
					cfg := loggedConfig(mlog.Pessimistic)
					cfg.OpsPerHost = ops
					cfg.Seed = seed
					c := runCluster(t, cfg, qbcFactory)
					b := heldImageBytes(c)
					mu.Lock()
					held[ops] += b
					mu.Unlock()
					for h := range cfg.Hosts {
						if _, err := c.Recover(mobile.HostID(h)); err != nil {
							t.Fatalf("failure of host %d: %v", h, err)
						}
					}
					if _, err := c.VerifyImages(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	t.Logf("%d image bytes held at 20 000 operations per host, %d at 80 000 (three seeds)", held[20_000], held[80_000])
	if float64(held[80_000]) > 1.5*float64(held[20_000]) {
		t.Fatalf("the station group holds %d image bytes at 80 000 operations per host, %d at 20 000", held[80_000], held[20_000])
	}
}

// heldImageBytes is the image volume the cluster's station group holds:
// the images a recovery can find, and each station's latest of each host,
// the base of its next incremental delta.
func heldImageBytes(c *Cluster) int64 {
	held := make(map[*statestore.Image]bool)
	for h := range c.states {
		for ord := range c.side.Slots[0].Counts[h] {
			if im, _, err := c.group.FindImage(h, ord); err == nil {
				held[im] = true
			}
		}
		for s := range c.cfg.Stations {
			if im := c.group.Station(s).Latest(h); im != nil {
				held[im] = true
			}
		}
	}
	var bytes int64
	for im := range held {
		bytes += int64(len(im.Data))
	}
	return bytes
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
								if _, ok := lg.EntryAt(mobile.HostID(h), seq); !ok {
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
