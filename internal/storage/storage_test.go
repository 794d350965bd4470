package storage

import (
	"testing"
	"testing/quick"

	"mobickpt/internal/mobile"
)

func TestTakeFirstIsFullTransfer(t *testing.T) {
	s := NewStore(DefaultCostModel())
	r := s.Take(0, 1, 0, Initial, 0)
	if r.DeltaUnits != 1024 || r.FetchUnits != 0 {
		t.Fatalf("first checkpoint delta=%d fetch=%d", r.DeltaUnits, r.FetchUnits)
	}
	if r.Ordinal != 0 || r.Index != 0 || r.MSS != 1 {
		t.Fatalf("record fields wrong: %+v", r)
	}
}

func TestIncrementalSameMSS(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 1, 0, Initial, 0)
	r := s.Take(0, 1, 1, Basic, 5)
	if r.DeltaUnits != 102 || r.FetchUnits != 0 {
		t.Fatalf("same-MSS increment delta=%d fetch=%d", r.DeltaUnits, r.FetchUnits)
	}
}

func TestIncrementalCrossMSSFetches(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 1, 0, Initial, 0)
	r := s.Take(0, 3, 1, Basic, 5)
	if r.DeltaUnits != 102 {
		t.Fatalf("delta = %d", r.DeltaUnits)
	}
	if r.FetchUnits != 1024 {
		t.Fatalf("cross-MSS checkpoint must fetch the previous full state, got %d", r.FetchUnits)
	}
}

func TestNonIncrementalAlwaysFull(t *testing.T) {
	m := DefaultCostModel()
	m.Incremental = false
	s := NewStore(m)
	s.Take(0, 1, 0, Initial, 0)
	r := s.Take(0, 1, 1, Basic, 5)
	if r.DeltaUnits != 1024 {
		t.Fatalf("non-incremental delta = %d", r.DeltaUnits)
	}
}

func TestChainAndLatest(t *testing.T) {
	s := NewStore(DefaultCostModel())
	if s.Latest(0) != nil || s.LatestLive(0) != nil {
		t.Fatal("empty chain should yield nil")
	}
	a := s.Take(0, 0, 0, Initial, 0)
	b := s.Take(0, 0, 1, Forced, 1)
	if got := s.Chain(0); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatal("chain wrong")
	}
	if s.Latest(0) != b {
		t.Fatal("latest wrong")
	}
	if len(s.Chain(1)) != 0 {
		t.Fatal("other host chain should be empty")
	}
}

func TestSupersede(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 0, 0, Initial, 0)
	old := s.Take(0, 0, 1, Basic, 1)
	rec := s.Take(0, 0, 1, Basic, 2) // QBC: same index replaces predecessor
	got := s.Supersede(rec)
	if got != old || !old.Superseded {
		t.Fatalf("superseded %v", got)
	}
	if s.LatestLive(0) != rec {
		t.Fatal("latest live should be the replacement")
	}
	// A second supersede finds nothing (old already superseded, and the
	// checkpoint at index 0 is below).
	if s.Supersede(rec) != nil {
		t.Fatal("nothing left to supersede")
	}
}

func TestSupersedeStopsBelowIndex(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 0, 0, Initial, 0)
	rec := s.Take(0, 0, 5, Basic, 1)
	if s.Supersede(rec) != nil {
		t.Fatal("no same-index predecessor exists")
	}
}

func TestFirstWithIndexAtLeast(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 0, 0, Initial, 0)
	c2 := s.Take(0, 0, 2, Forced, 1) // index jumped from 0 to 2
	s.Take(0, 0, 3, Basic, 2)
	// The recovery line with index 1 must use the first checkpoint with
	// index >= 1, i.e. the one at index 2.
	if got := s.FirstWithIndexAtLeast(0, 1); got != c2 {
		t.Fatalf("got %v", got)
	}
	if got := s.FirstWithIndexAtLeast(0, 4); got != nil {
		t.Fatalf("index beyond chain should yield nil, got %v", got)
	}
}

func TestFirstWithIndexAtLeastSkipsSuperseded(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 0, 0, Initial, 0)
	old := s.Take(0, 0, 1, Basic, 1)
	rec := s.Take(0, 0, 1, Basic, 2)
	s.Supersede(rec)
	if got := s.FirstWithIndexAtLeast(0, 1); got != rec {
		t.Fatalf("superseded checkpoint %v must not appear in recovery lines, got %v", old.ID(), got)
	}
}

func TestCounters(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 0, 0, Initial, 0) // full, wireless 1024
	s.Take(0, 0, 1, Basic, 1)   // delta 102
	s.Take(0, 2, 2, Forced, 2)  // delta 102 + fetch 1024
	rec := s.Take(0, 2, 2, Basic, 3)
	s.Supersede(rec)
	c := s.Counters()
	if c.Checkpoints != 4 {
		t.Fatalf("checkpoints = %d", c.Checkpoints)
	}
	if c.FullTransfers != 1 || c.DeltaTransfers != 3 {
		t.Fatalf("transfers full=%d delta=%d", c.FullTransfers, c.DeltaTransfers)
	}
	if c.Fetches != 1 || c.WiredUnits != 1024 {
		t.Fatalf("fetches=%d wired=%d", c.Fetches, c.WiredUnits)
	}
	if c.WirelessUnits != 1024+3*102 {
		t.Fatalf("wireless units = %d", c.WirelessUnits)
	}
	if c.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d", c.Reclaimed)
	}
}

func TestCountByKind(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 0, 0, Initial, 0)
	s.Take(0, 0, 1, Basic, 1)
	s.Take(0, 0, 2, Forced, 2)
	s.Take(1, 0, 0, Initial, 0)
	i, b, f := s.CountByKind(0)
	if i != 1 || b != 1 || f != 1 {
		t.Fatalf("host 0 counts %d/%d/%d", i, b, f)
	}
	i, b, f = s.CountByKind(-1)
	if i != 2 || b != 1 || f != 1 {
		t.Fatalf("global counts %d/%d/%d", i, b, f)
	}
}

func TestKindString(t *testing.T) {
	if Initial.String() != "initial" || Basic.String() != "basic" || Forced.String() != "forced" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestRecordID(t *testing.T) {
	r := &Record{Host: 2, Ordinal: 3, Index: 1}
	if r.ID() != "C_2,3(sn=1)" {
		t.Fatalf("id = %q", r.ID())
	}
}

// Property: ordinals are dense and increasing per host, and Take never
// decreases chain length.
func TestPropertyOrdinalsDense(t *testing.T) {
	f := func(hosts []uint8) bool {
		s := NewStore(DefaultCostModel())
		for _, hRaw := range hosts {
			h := mobile.HostID(hRaw % 4)
			s.Take(h, mobile.MSSID(hRaw%3), int(hRaw), Basic, 0)
		}
		for h := mobile.HostID(0); h < 4; h++ {
			for i, r := range s.Chain(h) {
				if r.Ordinal != i || r.Host != h {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTake(b *testing.B) {
	s := NewStore(DefaultCostModel())
	for i := 0; i < b.N; i++ {
		s.Take(mobile.HostID(i%8), mobile.MSSID(i%4), i, Basic, 0)
	}
}

// First checkpoints are carved from shared slabs (records and one-element
// chain backings alike): every host must still own its records and its
// chain, across slab boundaries, across ids first seen with a gap, and
// once later checkpoints outgrow the carved backing.
func TestInitialRecordsDoNotAlias(t *testing.T) {
	s := NewStore(DefaultCostModel())
	hosts := make([]mobile.HostID, 0, 3*recordSlabMin+2)
	for h := 0; h < 3*recordSlabMin; h++ {
		hosts = append(hosts, mobile.HostID(h))
	}
	hosts = append(hosts, 5000, 4000) // joins: a gap, then an id the gap stepped over
	for _, h := range hosts {
		s.Take(h, mobile.MSSID(h%7), 0, Initial, 0)
	}
	for round := 1; round <= 3; round++ {
		for _, h := range hosts {
			s.Take(h, mobile.MSSID(h%7), round, Basic, 0)
		}
	}
	seen := make(map[*Record]bool)
	for _, h := range hosts {
		chain := s.Chain(h)
		if len(chain) != 4 {
			t.Fatalf("host %d: chain of %d records, want 4", h, len(chain))
		}
		for i, r := range chain {
			if r.Host != h || r.Ordinal != i || r.Index != i || seen[r] {
				t.Fatalf("host %d: record %d is %+v (shared: %v)", h, i, *r, seen[r])
			}
			seen[r] = true
		}
	}
	if got := s.Chain(4500); got != nil {
		t.Fatalf("host 4500 never checkpointed, chain = %v", got)
	}
}

// TestInitialTakeAllocs gates the set-up cost of a store: the first
// checkpoint of n hosts taken in id order — what every protocol does at
// construction — must come from slabs and a geometrically grown chain
// table, not from two allocations per host.
func TestInitialTakeAllocs(t *testing.T) {
	const n = 20000
	allocs := testing.AllocsPerRun(3, func() {
		s := NewStore(DefaultCostModel())
		for h := 0; h < n; h++ {
			s.Take(mobile.HostID(h), 0, 0, Initial, 0)
		}
	})
	t.Logf("%.0f allocations for %d initial checkpoints", allocs, n)
	if allocs > n/20 {
		t.Fatalf("%.0f allocations for %d initial checkpoints (limit %d): per-host allocation is back", allocs, n, n/20)
	}
}
