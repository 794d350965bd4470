package mlog

import (
	"runtime"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
	"mobickpt/internal/trace"
)

func newLog(t *testing.T, mode Mode, batch int) *Log {
	t.Helper()
	cfg := DefaultConfig(mode)
	if batch > 0 {
		cfg.FlushBatch = batch
	}
	lg, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return lg
}

func appendN(lg *Log, h mobile.HostID, n int, startRecv int) {
	for i := 0; i < n; i++ {
		lg.Append(h, 1, uint64(100+i), startRecv+i, des.Time(i), 0)
	}
}

func TestValidate(t *testing.T) {
	cases := []Config{
		{Mode: Off, FlushBatch: 8, EntryBytes: 64},
		{Mode: Optimistic, FlushBatch: 0, EntryBytes: 64},
		{Mode: Pessimistic, FlushBatch: 8, EntryBytes: 0},
		{Mode: Mode(42), FlushBatch: 8, EntryBytes: 64},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	if err := DefaultConfig(Pessimistic).Validate(); err != nil {
		t.Errorf("default pessimistic config invalid: %v", err)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": Off, "off": Off, "pessimistic": Pessimistic, "optimistic": Optimistic} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) accepted")
	}
}

func TestPessimisticFlushesEveryEntry(t *testing.T) {
	lg := newLog(t, Pessimistic, 0)
	appendN(lg, 0, 5, 1)
	c := lg.Counters()
	if c.Flushes != 5 || c.FlushedEntries != 5 {
		t.Errorf("pessimistic: %d flushes of %d entries, want 5 of 5", c.Flushes, c.FlushedEntries)
	}
	if lg.StableBound(0) != 5 || lg.PendingCount(0) != 0 {
		t.Errorf("stable bound %d pending %d, want 5 and 0", lg.StableBound(0), lg.PendingCount(0))
	}
	if c.StableBytes != 5*64 {
		t.Errorf("StableBytes = %d, want %d", c.StableBytes, 5*64)
	}
}

func TestOptimisticBatchesFlushes(t *testing.T) {
	lg := newLog(t, Optimistic, 4)
	appendN(lg, 0, 10, 1)
	c := lg.Counters()
	if c.Flushes != 2 || c.FlushedEntries != 8 {
		t.Errorf("optimistic: %d flushes of %d entries, want 2 of 8", c.Flushes, c.FlushedEntries)
	}
	if lg.StableBound(0) != 8 || lg.PendingCount(0) != 2 {
		t.Errorf("stable bound %d pending %d, want 8 and 2", lg.StableBound(0), lg.PendingCount(0))
	}
	lg.Flush(0)
	if lg.StableBound(0) != 10 || lg.PendingCount(0) != 0 {
		t.Errorf("after Flush: stable bound %d pending %d, want 10 and 0", lg.StableBound(0), lg.PendingCount(0))
	}
	if got := lg.Counters().Flushes; got != 3 {
		t.Errorf("forced flush not counted: %d flushes, want 3", got)
	}
}

func TestHandoffWritesThroughAndTransfers(t *testing.T) {
	lg := newLog(t, Optimistic, 100)
	appendN(lg, 0, 3, 1)
	if lg.StableBound(0) != 0 {
		t.Fatalf("premature flush: stable bound %d", lg.StableBound(0))
	}
	moved := lg.Handoff(0, 2)
	if len(moved) != 3 {
		t.Fatalf("handoff transferred %d entries, want 3", len(moved))
	}
	if lg.StableBound(0) != 3 || lg.PendingCount(0) != 0 {
		t.Errorf("handoff did not write through: stable %d pending %d", lg.StableBound(0), lg.PendingCount(0))
	}
	if lg.Holder(0) != 2 {
		t.Errorf("Holder = %d, want 2", lg.Holder(0))
	}
	c := lg.Counters()
	if c.Handoffs != 1 || c.TransferBytes != 3*64 {
		t.Errorf("handoff counters = %d transfers, %d bytes; want 1 and %d", c.Handoffs, c.TransferBytes, 3*64)
	}
	// Same-station hand-off is a no-op transfer.
	if moved := lg.Handoff(0, 2); moved != nil {
		t.Errorf("same-station handoff transferred %d entries", len(moved))
	}
	if got := lg.Counters().Handoffs; got != 1 {
		t.Errorf("same-station handoff counted: %d", got)
	}
}

func TestEntryAtAcrossPruning(t *testing.T) {
	lg := newLog(t, Optimistic, 3)
	appendN(lg, 0, 7, 1) // recv counts 1..7; seqs 0..6; stable 0..5, pending 6
	if e, ok := lg.EntryAt(0, 6); !ok || e.MsgID != 106 {
		t.Fatalf("EntryAt(pending) = %+v, %v", e, ok)
	}
	if n := lg.PruneDelivered(0, 2); n != 2 { // recv counts 1,2 -> seqs 0,1
		t.Fatalf("pruned %d entries, want 2", n)
	}
	if lg.RetainedFrom(0) != 2 {
		t.Errorf("RetainedFrom = %d, want 2", lg.RetainedFrom(0))
	}
	if e, ok := lg.EntryAt(0, 1); ok {
		t.Errorf("pruned entry still visible: %+v", e)
	}
	for seq := 2; seq <= 6; seq++ {
		e, ok := lg.EntryAt(0, seq)
		if !ok || e.Seq != seq || e.MsgID != uint64(100+seq) || e.RecvCount != 1+seq || e.At != des.Time(seq) || e.From != 1 {
			t.Errorf("EntryAt(%d) = %+v, %v", seq, e, ok)
		}
	}
	if e, ok := lg.EntryAt(0, 7); ok {
		t.Errorf("EntryAt past end = %+v", e)
	}
	c := lg.Counters()
	if c.Pruned != 2 {
		t.Errorf("Pruned = %d, want 2", c.Pruned)
	}
	if lg.StableEntries() != 4 { // 6 stable - 2 pruned
		t.Errorf("StableEntries = %d, want 4", lg.StableEntries())
	}
}

func TestReplayFrom(t *testing.T) {
	lg := newLog(t, Pessimistic, 0)
	appendN(lg, 0, 6, 1) // recv counts 1..6
	got := lg.ReplayFrom(0, 3)
	if len(got) != 3 {
		t.Fatalf("ReplayFrom(3) returned %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.RecvCount != 4+i || e.Seq != 3+i {
			t.Errorf("replay entry %d = seq %d recv %d", i, e.Seq, e.RecvCount)
		}
	}
	if got := lg.ReplayFrom(0, 10); len(got) != 0 {
		t.Errorf("ReplayFrom past frontier returned %d entries", len(got))
	}
	if got := lg.ReplayFrom(5, 0); got != nil {
		t.Errorf("ReplayFrom of unknown host returned %d entries", len(got))
	}
	// Optimistic: the pending suffix must not replay.
	og := newLog(t, Optimistic, 4)
	appendN(og, 0, 6, 1) // 4 stable, 2 pending
	if got := og.ReplayFrom(0, 0); len(got) != 4 {
		t.Errorf("optimistic ReplayFrom replayed %d entries, want 4 (stable only)", len(got))
	}
}

// The replay suffix and the GC prefix meet at the first entry whose
// RecvCount exceeds the bound; the boundary is found by binary search,
// so runs of equal RecvCount and bounds outside the logged range are the
// cases that can go wrong.
func TestPrefixBoundary(t *testing.T) {
	recv := []int{2, 2, 2, 3, 5, 5, 8} // seqs 0..6; runs of equal counts, gaps
	build := func() *Log {
		lg := newLog(t, Pessimistic, 0)
		for i, rc := range recv {
			lg.Append(0, 1, uint64(100+i), rc, des.Time(i), 0)
		}
		return lg
	}
	cases := []struct {
		bound    int
		boundary int // entries with RecvCount <= bound
	}{
		{-1, 0}, {0, 0}, {1, 0}, // below the first entry
		{2, 3}, {3, 4}, {4, 4}, {5, 6}, {7, 6},
		{8, 7}, {9, 7}, {1 << 30, 7}, // at and above the last entry
	}
	for _, c := range cases {
		lg := build()
		got := lg.ReplayFrom(0, c.bound)
		if len(got) != len(recv)-c.boundary {
			t.Errorf("ReplayFrom(%d) returned %d entries, want %d", c.bound, len(got), len(recv)-c.boundary)
		}
		for i, e := range got {
			if e.Seq != c.boundary+i || e.RecvCount <= c.bound {
				t.Errorf("ReplayFrom(%d)[%d] = seq %d recv %d", c.bound, i, e.Seq, e.RecvCount)
			}
		}
		if n := lg.PruneDelivered(0, c.bound); n != c.boundary {
			t.Errorf("PruneDelivered(%d) = %d, want %d", c.bound, n, c.boundary)
		}
		if lg.RetainedFrom(0) != c.boundary || lg.StableEntries() != int64(len(recv)-c.boundary) {
			t.Errorf("after PruneDelivered(%d): retained from %d, %d stable", c.bound, lg.RetainedFrom(0), lg.StableEntries())
		}
		// What survives the prune is exactly what would have replayed.
		if rest := lg.ReplayFrom(0, c.bound); len(rest) != len(got) {
			t.Errorf("after PruneDelivered(%d): %d entries replay, want %d", c.bound, len(rest), len(got))
		}
	}

	// A host that logged nothing (inside and outside the id range) and an
	// empty log have no prefix and no suffix.
	lg := build()
	for _, h := range []mobile.HostID{-1, 3, 1 << 20} {
		if got := lg.ReplayFrom(h, 0); got != nil {
			t.Errorf("ReplayFrom(host %d) = %d entries", h, len(got))
		}
		if n := lg.PruneDelivered(h, 1<<30); n != 0 {
			t.Errorf("PruneDelivered(host %d) = %d", h, n)
		}
	}
	empty := newLog(t, Optimistic, 4)
	empty.Append(0, 1, 100, 1, 0, 0) // pending only: the stable list is empty
	if got := empty.ReplayFrom(0, 0); len(got) != 0 {
		t.Errorf("ReplayFrom on an empty stable list = %d entries", len(got))
	}
	if n := empty.PruneDelivered(0, 5); n != 0 {
		t.Errorf("PruneDelivered on an empty stable list = %d", n)
	}
}

func TestPeakStableEntries(t *testing.T) {
	lg := newLog(t, Pessimistic, 0)
	appendN(lg, 0, 4, 1)
	appendN(lg, 1, 2, 1)
	lg.PruneDelivered(0, 4)
	appendN(lg, 0, 1, 5)
	c := lg.Counters()
	if c.PeakStableEntries != 6 {
		t.Errorf("PeakStableEntries = %d, want 6", c.PeakStableEntries)
	}
	if lg.StableEntries() != 3 {
		t.Errorf("StableEntries = %d, want 3", lg.StableEntries())
	}
}

// Handoff returns the log's own references, uncopied: the host's next
// deliveries and its next hand-off's pruning may not write into the array
// that slice still aliases.
func TestHandedOffSliceSurvivesAppendAndPrune(t *testing.T) {
	lg := newLog(t, Pessimistic, 0)
	appendN(lg, 0, 6, 1) // recv counts 1..6
	moved := lg.Handoff(0, 1)
	want := append([]Ref(nil), moved...)

	appendN(lg, 0, 4, 7)
	if n := lg.PruneDelivered(0, 4); n != 4 {
		t.Fatalf("pruned %d entries, want 4", n)
	}
	appendN(lg, 0, 4, 11)
	if n := lg.PruneDelivered(0, 12); n != 8 {
		t.Fatalf("pruned %d entries, want 8", n)
	}
	if len(moved) != len(want) {
		t.Fatalf("handed-off slice changed length: %d -> %d", len(want), len(moved))
	}
	for i := range want {
		if moved[i] != want[i] {
			t.Fatalf("handed-off slice entry %d was rewritten: %+v", i, moved[i])
		}
	}
	// What the next hand-off ships is the retained suffix only.
	if next := lg.Handoff(0, 2); len(next) != 2 || lg.RetainedFrom(0) != 12 {
		t.Fatalf("next hand-off ships %d entries from seq %d, want 2 from 12", len(next), lg.RetainedFrom(0))
	}
	if e, ok := lg.EntryAt(0, 12); !ok || e.RecvCount != 13 || e.MsgID != 102 {
		t.Fatalf("seq 12 = %+v, %v; want the third of the last four appends", e, ok)
	}
}

// A log over a world's history holds one 8-byte reference per delivery
// and doubles its arrays, so over 100 000 appends it allocates at most two
// references per delivery (16 B, floored as -benchmem floors bytes per
// op), and nothing per call once warm; a log that copied each delivery
// into a heap Entry would allocate 48 B per append more. The history is
// written alike with and without the log, so the difference between the
// two runs' allocations is the log's.
func TestAppendAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const hosts, appends = 50, 100_000
	for _, mode := range []Mode{Pessimistic, Optimistic} {
		// deliver records delivery i in hist and, when lg is non-nil, logs it.
		deliver := func(hist *trace.History, lg *Log, i int) {
			h, from, at := mobile.HostID(i%hosts), mobile.HostID((i+1)%hosts), des.Time(i)
			exchange(hist, from, h, uint64(i), at, at)
			if lg != nil {
				lg.Append(h, from, uint64(i), i/hosts/4, at, mobile.MSSID(int(h)%25))
			}
		}
		run := func(logged bool) (*trace.History, *Log, int64) {
			hist := trace.NewHistory(hosts, 25)
			var lg *Log
			if logged {
				var err error
				if lg, err = Open(mode, hist); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range appends {
				deliver(hist, lg, i)
			}
			runtime.ReadMemStats(&after)
			return hist, lg, int64(after.TotalAlloc - before.TotalAlloc)
		}
		_, _, base := run(false)
		hist, lg, total := run(true)
		t.Logf("%v: %.2f B per delivery", mode, float64(total-base)/appends)
		if perDelivery := (total - base) / appends; perDelivery > 16 {
			t.Errorf("%v: Append allocates %d B per delivery (%d B over %d appends), want <= 16",
				mode, perDelivery, total-base, appends)
		}
		i := appends
		if n := testing.AllocsPerRun(1000, func() { deliver(hist, lg, i); i++ }); n != 0 {
			t.Errorf("%v: a warm Append allocates %v times per call, want 0", mode, n)
		}
	}
}

// A log over a world's history reads each delivery from the history's
// newest row, which the world records first; an Append of any other
// delivery is a wiring bug, and the panic names both.
func TestAppendPanicsOnForeignRow(t *testing.T) {
	hist := trace.NewHistory(3, 1)
	lg, err := Open(Pessimistic, hist)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, f func(), want ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("%s: panic %q does not name %q", what, msg, w)
				}
			}
		}()
		f()
		t.Errorf("%s: Append did not panic", what)
	}
	mustPanic("empty history", func() { lg.Append(1, 0, 7, 1, 2, 0) }, "msg 7", "history is empty")
	exchange(hist, 0, 1, 7, 1, 2) // msg 7: host 0 -> host 1, delivered at 2
	mustPanic("another message", func() { lg.Append(1, 0, 8, 1, 2, 0) }, "msg 8", "deliver of msg 7")
	mustPanic("another receiver", func() { lg.Append(2, 0, 7, 1, 2, 0) }, "to host 2", "by host 1")
	mustPanic("another sender", func() { lg.Append(1, 2, 7, 1, 2, 0) }, "from host 2", "peer 0")
	mustPanic("another time", func() { lg.Append(1, 0, 7, 1, 3, 0) }, "at 3", "at 2")
	lg.Append(1, 0, 7, 1, 2, 0)
	if e, ok := lg.EntryAt(1, 0); !ok || e != (Entry{Host: 1, Seq: 0, MsgID: 7, From: 0, RecvCount: 1, At: 2}) {
		t.Fatalf("EntryAt(1, 0) = %+v, %v", e, ok)
	}
	hist.Append(trace.Event{Kind: trace.Send, At: 3, Host: 1, Peer: 2, Msg: 9})
	mustPanic("a send row", func() { lg.Append(1, 0, 7, 1, 2, 0) }, "msg 7", "send of msg 9")
	if got := lg.AppendedCount(1); got != 1 {
		t.Fatalf("a refused Append was logged: %d entries", got)
	}
}

func TestOpenNeedsTheHistory(t *testing.T) {
	if lg, err := Open(Off, nil); lg != nil || err != nil {
		t.Errorf("Open(Off) = %v, %v; want no log", lg, err)
	}
	if _, err := Open(Pessimistic, nil); err == nil {
		t.Error("Open(Pessimistic, nil) built a log without a history")
	}
}

// exchange records in hist the send of message id from → to at sent and
// its delivery at at.
func exchange(hist *trace.History, from, to mobile.HostID, id uint64, sent, at des.Time) {
	ord := hist.Append(trace.Event{Kind: trace.Send, At: sent, Host: int32(from), Peer: int32(to), Msg: id})
	hist.Append(trace.Event{Kind: trace.Deliver, At: at, Host: int32(to), Peer: int32(from), Msg: id, Arg: ord})
}
