package live

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mobickpt/internal/check"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/rng"
	"mobickpt/internal/statestore"
	"mobickpt/internal/wire"
)

func loggedConfig(mode mlog.Mode) Config {
	cfg := DefaultConfig()
	cfg.LogMode = mode
	return cfg
}

func TestValidateLogConfig(t *testing.T) {
	c := DefaultConfig()
	c.LogMode = mlog.Mode(42)
	if c.Validate() == nil {
		t.Fatal("unknown LogMode accepted")
	}
}

// Every delivery of a logged live run must reconcile against the MSS
// log, and the hand-off transfers must survive the wire.
func TestLiveLoggingReconciles(t *testing.T) {
	for _, mode := range []mlog.Mode{mlog.Pessimistic, mlog.Optimistic} {
		t.Run(mode.String(), func(t *testing.T) {
			c := runCluster(t, loggedConfig(mode), qbcFactory)
			got := c.Counters()
			lg := c.MLog()
			if lg == nil {
				t.Fatal("no log")
			}
			if lg.Counters().Appended != got.Delivered {
				t.Fatalf("logged %d entries, delivered %d", lg.Counters().Appended, got.Delivered)
			}
			if got.Switches > 0 && got.LogFrameBytes == 0 {
				t.Fatalf("hosts switched %d times but no log transfer crossed the wire", got.Switches)
			}
			if got.DecodeErrors != 0 {
				t.Fatalf("%d log-transfer frames failed to decode", got.DecodeErrors)
			}
			if vs := check.LogReconciliation("live", lg, c.Trace(), len(c.states)); len(vs) != 0 {
				t.Fatalf("log reconciliation: %v", vs)
			}
		})
	}
}

// Replay-aware recovery on a live run: the cut has no unlogged orphans,
// rolled-back hosts replay their logged suffixes, and with pessimistic
// logging the rollback never propagates beyond the failed host.
func TestLiveRecoverReplays(t *testing.T) {
	c := runCluster(t, loggedConfig(mlog.Pessimistic), qbcFactory)
	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	logged := func(to mobile.HostID, seq int) bool {
		return seq < c.MLog().StableBound(to)
	}
	if o := recovery.UnloggedOrphans(c.Trace(), rep.Cut, logged); o != 0 {
		t.Fatalf("executed cut has %d unlogged orphans", o)
	}
	// Pessimistic logging stably logs every delivery: no receive is
	// orphan-producing, so only the failed host rolls back.
	if rb := rep.Cut.RolledBack(); rb != 1 {
		t.Fatalf("%d hosts rolled back under pessimistic logging, want 1", rb)
	}
	if rep.Replayed[0] != rep.ReplayedMessages {
		t.Fatalf("replay bookkeeping: %+v", rep)
	}
	// The failed host's replayable suffix is exactly what the log holds
	// past the restored checkpoint.
	want := len(c.MLog().ReplayFrom(0, rep.Restored[0]))
	if rep.Replayed[0] != want {
		t.Fatalf("replayed %d messages, log holds %d", rep.Replayed[0], want)
	}
}

// Under optimistic logging a recovery replays what the log made stable
// and nothing else. Whether a concurrent run ends with an unflushed
// suffix is the scheduler's call, so the case that tells the disciplines
// apart is scripted: one delivery after the receiver's initial
// checkpoint, which a pessimistic log makes stable at once and an
// optimistic one still buffers — one message replayed, or none.
func TestLiveRecoverOptimisticReplays(t *testing.T) {
	c := runCluster(t, loggedConfig(mlog.Optimistic), bcsFactory)
	rep, err := c.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	for h, n := range rep.Replayed {
		if n < 0 || n > c.MLog().StableBound(h) {
			t.Fatalf("host %d replayed %d entries, %d are stable", h, n, c.MLog().StableBound(h))
		}
	}

	for _, mode := range []mlog.Mode{mlog.Pessimistic, mlog.Optimistic} {
		c := scriptedCluster(t, loggedConfig(mode), bcsFactory)
		to := sendOne(t, c, 0, rng.NewStream(1, 0))
		want := 0
		if mode == mlog.Pessimistic {
			want = 1
		}
		stable := c.MLog().StableBound(to)
		rep, err := c.Recover(to)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restored[to] != 0 || rep.Replayed[to] != want || stable != want {
			t.Fatalf("log %s: host %d restored #%d and replayed %d of its one delivery (%d stable)",
				mode, to, rep.Restored[to], rep.Replayed[to], stable)
		}
	}
}

// Recover on a cluster that never ran: the failed host has no stable
// checkpoint image, and the error must say so instead of panicking.
func TestLiveRecoverNoStableCheckpoint(t *testing.T) {
	c, err := NewCluster(DefaultConfig(), qbcFactory)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Recover(0)
	if err == nil {
		t.Fatal("Recover on an empty cluster succeeded")
	}
	if !strings.Contains(err.Error(), "host 0") {
		t.Fatalf("error does not identify the host: %v", err)
	}
}

func TestLiveRecoverOutOfRangeHost(t *testing.T) {
	c := runCluster(t, DefaultConfig(), bcsFactory)
	for _, h := range []mobile.HostID{-1, 99} {
		if _, err := c.Recover(h); err == nil {
			t.Fatalf("Recover(%d) succeeded", h)
		}
	}
}

// A corrupted stable image must surface both through VerifyImages (with
// the failing host identified) and through Recover when the rollback
// needs that image.
func TestLiveVerifyImagesReportsCorruption(t *testing.T) {
	c := runCluster(t, DefaultConfig(), qbcFactory)
	if _, err := c.VerifyImages(); err != nil {
		t.Fatalf("images corrupt before tampering: %v", err)
	}
	im, _, err := c.group.FindImage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	im.Data[0] ^= 0xff
	checked, err := c.VerifyImages()
	if err == nil {
		t.Fatal("VerifyImages accepted a corrupted image")
	}
	if !strings.Contains(err.Error(), "host 0") {
		t.Fatalf("error does not identify the image: %v", err)
	}
	if checked != 0 {
		t.Fatalf("corruption of host 0 seq 0 detected after %d other images", checked)
	}
	// Recovery needing the corrupted image fails with the same cause.
	cut := recovery.FailureCut(c.Store(), len(c.states), 0)
	if cut[0] == 0 {
		if _, err := c.Recover(0); err == nil {
			t.Fatal("Recover restored a corrupted image")
		}
	}
	im.Data[0] ^= 0xff // restore for any later checks
}

// Image divergence after replay-aware recovery: the re-baselined images
// written during Recover must themselves verify.
func TestLiveImagesVerifyAfterReplayRecovery(t *testing.T) {
	c := runCluster(t, loggedConfig(mlog.Pessimistic), qbcFactory)
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	checked, err := c.VerifyImages()
	if err != nil {
		t.Fatalf("images diverged after recovery: %v", err)
	}
	if checked == 0 {
		t.Fatal("nothing verified")
	}
}

// VerifyImages starts each host's walk at the group's floor: below it
// every ordinal was discarded, and asking FindImage for one only built an
// ErrDiscarded error. It must check what the walk from ordinal 0 checks,
// on a logged cluster whose hand-offs and final drain raised the floors,
// and allocate nothing doing it.
func TestVerifyImagesAllocs(t *testing.T) {
	c := runCluster(t, loggedConfig(mlog.Pessimistic), qbcFactory)
	want, discarded := 0, 0
	for h := 0; h < c.hosts; h++ {
		for ord := 0; ord < c.side.Slots[0].Counts[h]; ord++ {
			if _, _, err := c.group.FindImage(h, ord); err == nil {
				want++
			} else if errors.Is(err, statestore.ErrDiscarded) {
				discarded++
			} else {
				t.Fatal(err)
			}
		}
	}
	if discarded == 0 {
		t.Fatal("no image was discarded: the cluster does not exercise the floor")
	}
	checked, err := c.VerifyImages()
	if err != nil || checked != want {
		t.Fatalf("VerifyImages checked %d images (%v), the walk from ordinal 0 finds %d", checked, err, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { c.VerifyImages() }); allocs != 0 {
		t.Fatalf("VerifyImages allocates %.0f times, want 0 (%d images discarded)", allocs, discarded)
	}
}

// referenceFrames is the hand-off the straightforward way: the whole log
// as one transfer, SplitTransfer it, EncodeFrame each part.
func referenceFrames(t *testing.T, h mobile.HostID, from, to mobile.MSSID, recs []wire.LogRecord) [][]byte {
	t.Helper()
	whole := &wire.LogTransfer{Host: h, FromMSS: from, ToMSS: to, Records: recs}
	var frames [][]byte
	for _, part := range wire.SplitTransfer(whole) {
		frame, err := wire.EncodeFrame(part)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// transferLog chunks the record list in place into reused buffers. What
// it ships must be what the reference path ships — same frames, byte for
// byte, same counts — and once the buffers have grown to the host's
// chunk size a hand-off must not allocate at all.
func TestTransferLogAllocs(t *testing.T) {
	c, err := NewCluster(loggedConfig(mlog.Pessimistic), qbcFactory)
	if err != nil {
		t.Fatal(err)
	}
	const h, from, to = mobile.HostID(3), mobile.MSSID(1), mobile.MSSID(2)
	log := make([]wire.LogRecord, 2*wire.MaxTransferRecords+5)
	for i := range log {
		log[i] = wire.LogRecord{Seq: uint64(i), MsgID: uint64(7*i + 1), From: mobile.HostID(i % 8), RecvCount: int64(i / 3), At: float64(i) / 2}
	}

	var x logTransferScratch
	for _, n := range []int{0, 1, wire.MaxTransferRecords, wire.MaxTransferRecords + 1, 10_000, len(log)} {
		entries := log[:n]
		ref := referenceFrames(t, h, from, to, entries)
		var refBytes int64
		for _, f := range ref {
			refBytes += int64(len(f))
		}
		if n == 0 && refBytes != 17 {
			t.Fatalf("an empty log's reference frame is %d bytes, want the 17-byte header", refBytes)
		}
		if n == 10_000 && len(ref) != 2 {
			t.Fatalf("10 000 entries split into %d frames, want 2", len(ref))
		}

		before := c.Counters()
		c.transferLog(&x, h, from, to, entries)
		got := c.Counters()
		if d := got.FrameBytes - before.FrameBytes; d != refBytes {
			t.Errorf("n=%d: FrameBytes grew by %d, reference frames total %d", n, d, refBytes)
		}
		if d := got.LogFrameBytes - before.LogFrameBytes; d != refBytes {
			t.Errorf("n=%d: LogFrameBytes grew by %d, reference frames total %d", n, d, refBytes)
		}
		if d := got.LogRecords - before.LogRecords; d != int64(n) {
			t.Errorf("n=%d: LogRecords grew by %d", n, d)
		}
		if got.DecodeErrors != 0 {
			t.Fatalf("n=%d: %d decode errors", n, got.DecodeErrors)
		}
		// Frame k of the list is the last frame of the list cut after it
		// (the scratch holds the last frame shipped), so every frame is
		// compared, not just the tail.
		for k, want := range ref {
			c.transferLog(&x, h, from, to, entries[:min((k+1)*wire.MaxTransferRecords, n)])
			if !bytes.Equal(x.frame, want) {
				t.Fatalf("n=%d: frame %d of %d differs from SplitTransfer+EncodeFrame", n, k, len(ref))
			}
			if x.in.Host != h || len(x.in.Records)*36+17 != len(want) {
				t.Fatalf("n=%d: frame %d decoded to host %d, %d records", n, k, x.in.Host, len(x.in.Records))
			}
		}
	}

	entries := log[:10_000]
	if allocs := testing.AllocsPerRun(20, func() { c.transferLog(&x, h, from, to, entries) }); allocs != 0 {
		t.Fatalf("a warm 10 000-entry hand-off allocated %v times, want 0", allocs)
	}
}
