package sim

import (
	"slices"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
)

// collectConfig maps fuzz bytes onto one protocol's small recorded world —
// 2–10 hosts, 2–5 stations, a horizon of 300–2000, up to two joins — that
// collects on a GCInterval of 25–200, one byte per knob, in a fixed order,
// and zero once the bytes run out.
func collectConfig(b []byte) Config {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	c := DefaultConfig()
	c.Workload.TSwitch, c.Workload.PSwitch, c.Workload.DisconnectMean = 100, 0.8, 100
	c.Workload.PComm = 0.2
	c.Mobile.NumHosts = 2 + next()%9
	c.Mobile.NumMSS = 2 + next()%4
	c.Horizon = 300 + des.Time(next()*1700/255)
	c.Seed = uint64(next())
	c.Protocols = []ProtocolName{[]ProtocolName{TP, BCS, QBC, UNC, MS}[next()%5]}
	c.GCInterval = des.Time(1+next()%8) * 25
	c.MessageLog = mlog.Mode(next() % 3)
	for j := next() % 3; j > 0; j-- {
		c.JoinTimes = append(c.JoinTimes, c.Horizon*des.Time(1+next())/256)
	}
	c.RecordTrace = true
	c.Checks = true
	return c
}

// FuzzCollect is the soundness gate of the one collection rule
// (protoside.Slot.Frontier). Collection observes and never perturbs the
// trace, so a run that collects on its GC ticks and its twin that does
// not (GCInterval = 0) must restore the same recovery line after a
// failure of every host, with and without the log. And whatever either
// line rolls a host back to, the log must still replay every stable
// delivery the rollback undoes: both twins prune their logs at hand-offs,
// so the entries are held to the trace's own record of them — what a log
// that never pruned would return. The one exception is a late joiner's
// plain line, the same-index line through its own latest checkpoint:
// while that index is below one a collection used before the join, the
// line reaches below what the collection took (StableIndex covers the
// hosts of its day, and check.RecoveryLines exempts such lines too). The
// replay-aware line, which a logged world recovers on, is held for every
// host.
func FuzzCollect(f *testing.F) {
	// One seed per protocol and log mode; the joining ones (the last
	// bytes) put a host at index 0 in mid-run.
	for p := range 5 {
		for lg := range 3 {
			f.Add([]byte{6, 3, 200, byte(1 + p + 5*lg), byte(p), 1, byte(lg)})
			f.Add([]byte{8, 4, 255, byte(40 + p + 5*lg), byte(p), 3, byte(lg), 2, 60, 160})
		}
	}
	// Lost joiner lines: MS over five hosts with a sixth joining at the
	// horizon, after a tick at stable index 14, takes the records the
	// joiner's line needs; over two hosts with two joining, logged, the
	// hand-offs before the joins take the log entries.
	f.Add([]byte{3, 0, 48, 48, 4, 0, 0, 1, 255})
	f.Add([]byte{0, 0, 0, 33, 4, 7, 1, 2, 65, 239})
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg := collectConfig(b)
		on, err := Run(cfg)
		if err != nil {
			t.Fatalf("collecting run (%v, log %s, GC every %v, joins %v): %v",
				cfg.Protocols, cfg.MessageLog, cfg.GCInterval, cfg.JoinTimes, err)
		}
		twin := cfg
		twin.GCInterval = 0
		off, err := Run(twin)
		if err != nil {
			t.Fatalf("twin run: %v", err)
		}
		pr, ref := &on.Protocols[0], &off.Protocols[0]
		n := pr.Trace.NumHosts()
		// Both twins log the same deliveries stably, so one predicate
		// serves both.
		preds := []recovery.LoggedFunc{nil}
		if pr.MLog != nil {
			preds = append(preds, Logged(pr))
		}
		for failed := range mobile.HostID(n) {
			for _, logged := range preds {
				if logged == nil && int(failed) >= cfg.Mobile.NumHosts {
					continue // a late joiner's plain line
				}
				cut, _ := pr.Slot().RecoveryLine(n, failed, logged)
				want, _ := ref.Slot().RecoveryLine(n, failed, logged)
				if !slices.Equal(cut, want) {
					t.Fatalf("%s (log %s, GC every %v, joins %v), failure of host %d, logged line %v: collected %v, uncollected %v",
						pr.Name, cfg.MessageLog, cfg.GCInterval, cfg.JoinTimes, failed, logged != nil, cut, want)
				}
				if pr.MLog != nil {
					sameReplay(t, pr, cut)
				}
			}
		}
	})
}

// sameReplay requires pr's log to replay, for every host cut rolls back,
// exactly the stable deliveries the rollback undoes, read off the trace.
func sameReplay(t *testing.T, pr *ProtocolResult, cut recovery.Cut) {
	t.Helper()
	want := make([][]uint64, len(cut))
	seq := make([]int, len(cut))
	for i := range pr.Trace.Len() {
		ev := pr.Trace.Event(i)
		s := seq[ev.To]
		seq[ev.To]++
		if cut[ev.To] != recovery.End && ev.RecvCount > cut[ev.To] && s < pr.MLog.StableBound(ev.To) {
			want[ev.To] = append(want[ev.To], ev.ID)
		}
	}
	for h, x := range cut {
		if x == recovery.End {
			continue
		}
		var got []uint64
		for _, e := range pr.MLog.ReplayFrom(mobile.HostID(h), x) {
			got = append(got, e.MsgID)
		}
		if !slices.Equal(got, want[h]) {
			t.Fatalf("%s: host %d restores ordinal %d and replays %v, the trace has %v (log retained from %d)",
				pr.Name, h, x, got, want[h], pr.MLog.RetainedFrom(mobile.HostID(h)))
		}
	}
}
