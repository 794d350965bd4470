package recovery

import (
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

func TestStableIndex(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	st.Take(0, 0, 0, storage.Initial, 0)
	st.Take(0, 0, 3, storage.Forced, 1)
	st.Take(1, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 1, storage.Basic, 1)
	if got := StableIndex(st, 2); got != 1 {
		t.Fatalf("stable index = %d, want 1 (the laggard's latest)", got)
	}
	// A host with no checkpoints pins the frontier at 0.
	if got := StableIndex(st, 3); got != 0 {
		t.Fatalf("stable index = %d, want 0", got)
	}
}

func TestCollectGarbage(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	// Host 0: indices 0,1,2,3. Host 1: indices 0,2.
	for i := 0; i <= 3; i++ {
		kind := storage.Basic
		if i == 0 {
			kind = storage.Initial
		}
		st.Take(0, 0, i, kind, 0)
	}
	st.Take(1, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 2, storage.Forced, 1)

	// Stable index = min(3, 2) = 2. Host 0 keeps ordinals >= 2 (its first
	// index >= 2); host 1 keeps its index-2 checkpoint (ordinal 1).
	records, units := CollectGarbage(st, 2)
	if records != 3 {
		t.Fatalf("reclaimed %d records, want 3", records)
	}
	if units <= 0 {
		t.Fatal("no volume reclaimed")
	}
	if st.LiveRecords(-1) != 3 {
		t.Fatalf("live records = %d, want 3", st.LiveRecords(-1))
	}
	// Every surviving recovery line is intact: for each x from the stable
	// index up, each host still has its line member.
	for x := 2; x <= 3; x++ {
		if st.FirstWithIndexAtLeast(0, x) == nil {
			t.Fatalf("host 0 lost its line member for index %d", x)
		}
	}
	if st.FirstWithIndexAtLeast(1, 2) == nil {
		t.Fatal("host 1 lost its line member for index 2")
	}
	// GC is idempotent.
	if r, _ := CollectGarbage(st, 2); r != 0 {
		t.Fatalf("second GC reclaimed %d records", r)
	}
}

func TestCollectGarbagePreservesLatest(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	st.Take(0, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 0, storage.Initial, 0)
	CollectGarbage(st, 2)
	for h := 0; h < 2; h++ {
		if st.LatestLive(0) == nil {
			t.Fatalf("host %d lost its only checkpoint", h)
		}
	}
}

// Frontier is the per-host question both collectors ask: the ordinal of
// the earliest checkpoint a future line can still restore.
func TestFrontier(t *testing.T) {
	st := storage.NewStore(storage.DefaultCostModel())
	// Host 0: indices 0,1,2,3. Host 1: indices 0,2. Host 2 joined late and
	// still sits at index 0.
	for i := 0; i <= 3; i++ {
		st.Take(0, 0, i, storage.Basic, 0)
	}
	st.Take(1, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 2, storage.Forced, 1)
	st.Take(2, 0, 0, storage.Initial, 2)

	// Without the joiner the stable index is min(3, 2) = 2: host 0 keeps
	// from its index-2 checkpoint (ordinal 2), host 1 from ordinal 1.
	stable := StableIndex(st, 2)
	if f0, f1 := Frontier(st, 0, stable), Frontier(st, 1, stable); f0 != 2 || f1 != 1 {
		t.Fatalf("frontiers at stable index %d = %d, %d; want 2, 1", stable, f0, f1)
	}
	// Counting the joiner holds everybody's frontier at ordinal 0.
	stable = StableIndex(st, 3)
	for h := 0; h < 3; h++ {
		if f := Frontier(st, mobile.HostID(h), stable); f != 0 {
			t.Fatalf("host %d: frontier %d with a joiner at index 0, want 0", h, f)
		}
	}
	// A host whose chain never reaches the index has nothing safe to
	// discard, and neither does a host without a chain.
	if f := Frontier(st, 1, 3); f != -1 {
		t.Fatalf("frontier past the chain's last index = %d, want -1", f)
	}
	if f := Frontier(st, 7, 0); f != -1 {
		t.Fatalf("frontier of a host without checkpoints = %d, want -1", f)
	}
	// -1 means "keep everything" to the checkpoint collector.
	if r, _ := st.PruneBefore(1, Frontier(st, 1, 3)); r != 0 {
		t.Fatalf("PruneBefore(-1) reclaimed %d records", r)
	}
}
