package live

import (
	"strconv"
	"sync"
	"testing"

	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/recovery"
	"mobickpt/internal/rng"
)

// The metrics instruments must be safe to snapshot while the cluster
// runs (the /metrics endpoint scrapes a live system) — this test races a
// snapshot loop against the run and is meaningful under -race.
func TestMetricsConcurrentSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OpsPerHost = 200
	cfg.Joins = 2
	cfg.LogMode = mlog.Optimistic
	cfg.Metrics = obs.NewRegistry()
	c := recordedCluster(t, cfg, qbcFactory)

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cfg.Metrics.Snapshot()
			}
		}
	}()
	c.Run()
	close(stop)
	scraper.Wait()

	snap := cfg.Metrics.Snapshot()
	k := c.Counters()
	if v, ok := snap.Get("live_sent_total"); !ok || v != k.Sent {
		t.Errorf("live_sent_total = %d (%v), want %d", v, ok, k.Sent)
	}
	if v, ok := snap.Get("live_delivered_total"); !ok || v != k.Delivered {
		t.Errorf("live_delivered_total = %d (%v), want %d", v, ok, k.Delivered)
	}
	// The checkpoint counters are the protocol side's, under the
	// simulator's names: one sim_checkpoints_total sample per cause, which
	// together count every record in the store.
	var ckpts int64
	for _, smp := range snap.Counters {
		if smp.Name == "sim_checkpoints_total" {
			ckpts += smp.Value
		}
	}
	if initial, basic, forced := c.Store().CountByKind(-1); ckpts != int64(initial+basic+forced) || ckpts == 0 {
		t.Errorf("sim_checkpoints_total sums to %d, the store holds %d records", ckpts, initial+basic+forced)
	}
	// So are the log's (mlog.Instrument), all eight, sampled under mu —
	// the scraper above raced them against the hand-offs' pruning.
	lk := c.MLog().Counters()
	for _, in := range []struct {
		name string
		want int64
	}{
		{"mlog_appended_total", lk.Appended},
		{"mlog_flushes_total", lk.Flushes},
		{"mlog_flushed_entries_total", lk.FlushedEntries},
		{"mlog_stable_bytes_total", lk.StableBytes},
		{"mlog_handoffs_total", lk.Handoffs},
		{"mlog_transfer_bytes_total", lk.TransferBytes},
		{"mlog_pruned_total", lk.Pruned},
		{"mlog_retained_entries", c.MLog().StableEntries()},
	} {
		if v, ok := snap.Get(in.name, "proto", "QBC"); !ok || v != in.want {
			t.Errorf("%s = %d (%v), want %d", in.name, v, ok, in.want)
		}
		if snap.Help[in.name] == "" {
			t.Errorf("%s has no # HELP text", in.name)
		}
	}
	// (Whether this run pruned anything is up to the scheduler: a host
	// that sits disconnected at index 0 holds the frontier at 0.)
	if lk.Pruned+c.MLog().StableEntries() != lk.FlushedEntries {
		t.Errorf("pruned %d + retained %d != %d entries made stable",
			lk.Pruned, c.MLog().StableEntries(), lk.FlushedEntries)
	}
	// How many records the run's hand-offs shipped is the scheduler's call
	// too; TestLogTransferMetricScripted pins a hand-off that must ship.
	if v, ok := snap.Get("live_log_transfer_records_total"); !ok || v != k.LogRecords {
		t.Errorf("live_log_transfer_records_total = %d (%v), want %d", v, ok, k.LogRecords)
	}
	// The depth gauges read the mailboxes: a finished, fully drained run
	// shows every link empty.
	for s := 0; s < cfg.Stations; s++ {
		if v, ok := snap.Get("live_uplink_depth", "station", strconv.Itoa(s)); !ok || v != 0 {
			t.Errorf("live_uplink_depth{station=%d} = %d (%v), want 0", s, v, ok)
		}
	}
	if v, ok := snap.Get("live_downlink_depth_total"); !ok || v != k.Undrained {
		t.Errorf("live_downlink_depth_total = %d (%v), want %d", v, ok, k.Undrained)
	}
	if _, ok := snap.Get("go_goroutines"); !ok {
		t.Error("go_goroutines gauge missing")
	}

	// Recovery on the finished cluster feeds the replay counter and the
	// rollback-depth histogram.
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	snap = cfg.Metrics.Snapshot()
	if v, ok := snap.Get("live_replayed_messages_total"); !ok || v != int64(rep.ReplayedMessages) {
		t.Errorf("live_replayed_messages_total = %d (%v), want %d", v, ok, rep.ReplayedMessages)
	}
	if v, ok := snap.Get("recovery_rollbacks_total", "run", "live"); !ok || v != 1 {
		t.Errorf("recovery_rollbacks_total = %d (%v), want 1", v, ok)
	}
}

// A hand-off whose record count does not depend on the scheduler: the
// test drives the cluster's own events from one goroutine. Host 0 sends
// one packet, its receiver takes it — logged pessimistically, after its
// initial checkpoint — and then switches cells. Every host is still at
// index 0, so the frontier prunes nothing and the hand-off must ship that
// one record, in the counters and in live_log_transfer_records_total.
func TestLogTransferMetricScripted(t *testing.T) {
	cfg := loggedConfig(mlog.Pessimistic)
	cfg.Metrics = obs.NewRegistry()
	c := scriptedCluster(t, cfg, qbcFactory)
	src := rng.NewStream(cfg.Seed, 0)
	to := sendOne(t, c, 0, src)
	var xfer logTransferScratch
	c.switchCell(to, src, &xfer)

	k := c.Counters()
	if k.Sent != 1 || k.Delivered != 1 || k.Switches != 1 || k.LogRecords != 1 {
		t.Fatalf("sent %d, delivered %d, switched %d, shipped %d records; want 1 each",
			k.Sent, k.Delivered, k.Switches, k.LogRecords)
	}
	if v, ok := cfg.Metrics.Snapshot().Get("live_log_transfer_records_total"); !ok || v != 1 {
		t.Fatalf("live_log_transfer_records_total = %d (%v), want 1", v, ok)
	}
	if lk := c.MLog().Counters(); lk.Handoffs != 1 || lk.Pruned != 0 {
		t.Fatalf("the log made %d hand-offs and pruned %d entries, want 1 and 0", lk.Handoffs, lk.Pruned)
	}
}

// recovery_rollback_depth observes, per rolled-back host, the checkpoints
// the cut discards from its chain — not one more for the re-baseline the
// recovery itself takes — with and without a log.
func TestRecoverObservesRollbackDepth(t *testing.T) {
	for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic} {
		cfg := loggedConfig(mode)
		cfg.Metrics = obs.NewRegistry()
		c := runCluster(t, cfg, qbcFactory)
		rep, err := c.Recover(0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for h, ord := range rep.Cut {
			if ord != recovery.End {
				want += len(c.Store().Chain(mobile.HostID(h))) - 1 - ord
			}
		}
		var got *obs.HistogramSample
		snap := cfg.Metrics.Snapshot()
		for i, h := range snap.Histograms {
			if h.Name == "recovery_rollback_depth" {
				got = &snap.Histograms[i]
			}
		}
		if got == nil {
			t.Fatalf("log %s: no recovery_rollback_depth histogram", mode)
		}
		if got.Count != int64(rep.Cut.RolledBack()) || got.Sum != float64(want) {
			t.Errorf("log %s: %d depths summing to %v observed, want %d summing to %d",
				mode, got.Count, got.Sum, rep.Cut.RolledBack(), want)
		}
	}
}

// Without Config.Metrics every instrument is nil and the cluster must
// behave identically (the nil-safe no-op path).
func TestMetricsDisabledIsNoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OpsPerHost = 50
	c := runCluster(t, cfg, bcsFactory)
	if c.Counters().Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
	if _, err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
}

// The depth gauges report what is queued on the links right now.
func TestDepthGaugesReadMailboxes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	c, err := NewCluster(cfg, bcsFactory)
	if err != nil {
		t.Fatal(err)
	}
	c.wired[1].put(packet{to: 0})
	c.downlink[0].put(packet{to: 0})
	c.downlink[3].put(packet{to: 3})
	snap := cfg.Metrics.Snapshot()
	for s, want := range []int64{0, 1, 0, 0} {
		if v, ok := snap.Get("live_uplink_depth", "station", strconv.Itoa(s)); !ok || v != want {
			t.Errorf("live_uplink_depth{station=%d} = %d (%v), want %d", s, v, ok, want)
		}
	}
	if v, ok := snap.Get("live_downlink_depth_total"); !ok || v != 2 {
		t.Errorf("live_downlink_depth_total = %d (%v), want 2", v, ok)
	}
}
