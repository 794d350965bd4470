package storage

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
	"mobickpt/internal/rng"
)

// costs returns what r cost to ship, as Counters and PruneBefore derive it.
func costs(s *Store, r *Record) (delta, fetch int64) {
	var prev *Record
	if r.Ordinal > 0 {
		prev = s.Chain(mobile.HostID(r.Host))[r.Ordinal-1]
	}
	return s.model.units(r, prev)
}

func TestTakeFirstIsFullTransfer(t *testing.T) {
	s := NewStore(DefaultCostModel())
	r := s.Take(0, 1, 0, Initial, 0)
	if delta, fetch := costs(s, r); delta != 1024 || fetch != 0 {
		t.Fatalf("first checkpoint delta=%d fetch=%d", delta, fetch)
	}
	if r.Ordinal != 0 || r.Index != 0 || r.MSS != 1 {
		t.Fatalf("record fields wrong: %+v", r)
	}
}

func TestIncrementalSameMSS(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 1, 0, Initial, 0)
	r := s.Take(0, 1, 1, Basic, 5)
	if delta, fetch := costs(s, r); delta != 102 || fetch != 0 {
		t.Fatalf("same-MSS increment delta=%d fetch=%d", delta, fetch)
	}
}

func TestIncrementalCrossMSSFetches(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(0, 1, 0, Initial, 0)
	r := s.Take(0, 3, 1, Basic, 5)
	delta, fetch := costs(s, r)
	if delta != 102 {
		t.Fatalf("delta = %d", delta)
	}
	if fetch != 1024 {
		t.Fatalf("cross-MSS checkpoint must fetch the previous full state, got %d", fetch)
	}
}

func TestNonIncrementalAlwaysFull(t *testing.T) {
	m := DefaultCostModel()
	m.Incremental = false
	s := NewStore(m)
	s.Take(0, 1, 0, Initial, 0)
	r := s.Take(0, 1, 1, Basic, 5)
	if delta, _ := costs(s, r); delta != 1024 {
		t.Fatalf("non-incremental delta = %d", delta)
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
		for i, hRaw := range hosts {
			h := mobile.HostID(hRaw % 4)
			s.Take(h, mobile.MSSID(hRaw%3), i, Basic, 0)
		}
		for h := mobile.HostID(0); h < 4; h++ {
			for i, r := range s.Chain(h) {
				if int(r.Ordinal) != i || mobile.HostID(r.Host) != h {
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

// Records are carved from shared chunks and a host's first chain slot
// from shared slot chunks: every host must still own its records and its
// chain, across chunk boundaries, across ids first seen with a gap, and
// once later checkpoints outgrow the carved slot — inside the doubling
// chunks, and past two full chunkMax-record chunks after them.
func TestInitialRecordsDoNotAlias(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hosts int
	}{
		{"within the doubling chunks", 3 * chunkMin},
		{"past two full chunks", 3 * chunkMax},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(DefaultCostModel())
			hosts := make([]mobile.HostID, 0, tc.hosts+2)
			for h := range tc.hosts {
				hosts = append(hosts, mobile.HostID(h))
			}
			// joins: a gap, then an id the gap stepped over
			gap := mobile.HostID(tc.hosts)
			hosts = append(hosts, gap+1000, gap)
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
					if mobile.HostID(r.Host) != h || int(r.Ordinal) != i || int(r.Index) != i || seen[r] {
						t.Fatalf("host %d: record %d is %+v (shared: %v)", h, i, *r, seen[r])
					}
					seen[r] = true
				}
			}
			if got := s.Chain(gap + 500); got != nil {
				t.Fatalf("host %d never checkpointed, chain = %v", gap+500, got)
			}
		})
	}
}

// TestRecordRow pins the stored row: 32 bytes with no pointer in it, so a
// chunk of records is one allocation the collector never scans.
func TestRecordRow(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size != 32 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 32", size)
	}
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int32, reflect.Uint8, reflect.Float64:
		default:
			t.Fatalf("Record.%s is a %s: a row holds only fixed-size scalars", f.Name, f.Type)
		}
	}
}

// TestTakeAllocs gates what a checkpoint costs the heap. The first
// checkpoint of n hosts taken in id order — what every protocol does at
// construction — must come from chunks and a doubling chain table, not
// from allocations per host. Later checkpoints allocate only when a
// record chunk or a host's chain backing grows: amortised, at most
// takeBytesLimit bytes and a small fraction of an allocation each.
func TestTakeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		n              = 20000
		rounds         = 10
		takeBytesLimit = 64 // a 32-byte row plus at most 32 B of chain backings, which append doubles
	)
	var before, after runtime.MemStats
	measure := func(f func()) (allocs, bytes float64) {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	s := NewStore(DefaultCostModel())
	allocs, _ := measure(func() {
		for h := 0; h < n; h++ {
			s.Take(mobile.HostID(h), 0, 0, Initial, 0)
		}
	})
	t.Logf("%.0f allocations for %d initial checkpoints", allocs, n)
	if allocs > n/20 {
		t.Fatalf("%.0f allocations for %d initial checkpoints (limit %d): per-host allocation is back", allocs, n, n/20)
	}
	allocs, bytes := measure(func() {
		for round := 1; round <= rounds; round++ {
			for h := 0; h < n; h++ {
				s.Take(mobile.HostID(h), mobile.MSSID((h+round)%7), round, Basic, 0)
			}
		}
	})
	takes := float64(n * rounds)
	t.Logf("%.2f allocations and %.1f B per later checkpoint", allocs/takes, bytes/takes)
	if bytes/takes > takeBytesLimit || allocs/takes > 0.5 {
		t.Fatalf("%.2f allocations and %.1f B per later checkpoint (limits 0.5 and %d B): per-record allocation is back",
			allocs/takes, bytes/takes, takeBytesLimit)
	}
}

// TestTakePanicsOnDecreasingIndex: FirstWithIndexAtLeast binary-searches
// a whole chain, superseded and pruned records included, so Take refuses
// an index below the previous record's — even one no live record holds.
func TestTakePanicsOnDecreasingIndex(t *testing.T) {
	s := NewStore(DefaultCostModel())
	s.Take(3, 0, 0, Initial, 0)
	s.Take(3, 0, 5, Basic, 1)
	s.Take(3, 0, 5, Forced, 2) // an equal index is QBC's reuse
	s.PruneBefore(3, 3)        // no live record left
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "host 3") || !strings.Contains(msg, "index 4") || !strings.Contains(msg, "index 5") {
			t.Fatalf("Take(index 4) after index 5 recovered %q, want a panic naming host 3 and both indices", msg)
		}
	}()
	s.Take(3, 0, 4, Basic, 3)
}

// refStore is the store as it was before costs were derived: each record's
// costs fixed at Take by the stored-cost rule, kept beside the record.
type refStore struct {
	model CostModel
	cost  map[*Record][2]int64 // delta, fetch
	last  map[mobile.HostID]*Record
}

func (ref *refStore) take(s *Store, h mobile.HostID, mss mobile.MSSID, index int) *Record {
	r := s.Take(h, mss, index, Basic, 0)
	var delta, fetch int64
	switch prev := ref.last[h]; {
	case !ref.model.Incremental || prev == nil:
		delta = ref.model.FullState
	default:
		delta = ref.model.Delta
		if prev.MSS != r.MSS {
			fetch = ref.model.FullState
		}
	}
	ref.cost[r] = [2]int64{delta, fetch}
	ref.last[h] = r
	return r
}

// pruneUnits is what PruneBefore reclaims by the stored costs.
func (ref *refStore) pruneUnits(s *Store, h mobile.HostID, keep int) (records int, units int64) {
	for _, r := range s.Chain(h) {
		if int(r.Ordinal) < keep && !r.Pruned && !r.Superseded {
			records++
			units += ref.cost[r][0]
		}
	}
	return records, units
}

func (ref *refStore) counters(s *Store) Counters {
	var c Counters
	for _, r := range ref.last {
		for _, r := range s.Chain(mobile.HostID(r.Host)) {
			cost := ref.cost[r]
			c.Checkpoints++
			if cost[0] >= ref.model.FullState {
				c.FullTransfers++
			} else {
				c.DeltaTransfers++
			}
			c.WirelessUnits += cost[0]
			if cost[1] > 0 {
				c.Fetches++
				c.WiredUnits += cost[1]
			}
			if r.Superseded || r.Pruned {
				c.Reclaimed++
			}
		}
	}
	return c
}

// Property: the costs Counters and PruneBefore derive equal the costs the
// store used to keep on every record, under both cost models, on random
// station sequences with supersessions and prunes in between.
func TestPropertyDerivedCostsMatchStored(t *testing.T) {
	models := []CostModel{
		DefaultCostModel(),
		{FullState: 1024, Delta: 102, Incremental: false},
		{FullState: 64, Delta: 64, Incremental: true}, // a delta as large as the state counts as a full transfer
	}
	f := func(seed uint64, modelPick uint8) bool {
		model := models[int(modelPick)%len(models)]
		src := rng.NewStream(seed, 46)
		s := NewStore(model)
		ref := &refStore{model: model, cost: make(map[*Record][2]int64), last: make(map[mobile.HostID]*Record)}
		index := make(map[mobile.HostID]int)
		for op := 0; op < 400; op++ {
			h := mobile.HostID(src.Intn(6))
			switch r := src.Intn(10); {
			case r < 7:
				index[h] += src.Intn(3) // 0: the same index again, as QBC reuses one
				rec := ref.take(s, h, mobile.MSSID(src.Intn(4)), index[h])
				if src.Intn(2) == 0 {
					s.Supersede(rec)
				}
			default:
				keep := src.Intn(len(s.Chain(h)) + 2)
				wantRecords, wantUnits := ref.pruneUnits(s, h, keep)
				if records, units := s.PruneBefore(h, keep); records != wantRecords || units != wantUnits {
					t.Logf("model %+v seed %d: PruneBefore(%d, %d) = %d, %d; stored costs say %d, %d",
						model, seed, h, keep, records, units, wantRecords, wantUnits)
					return false
				}
			}
		}
		if got, want := s.Counters(), ref.counters(s); got != want {
			t.Logf("model %+v seed %d: Counters() = %+v, stored costs say %+v", model, seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
