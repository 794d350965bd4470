package trace

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
	"mobickpt/internal/rng"
)

// shuffledTrace records msgs messages among hosts hosts, delivering the
// in-flight ones in random order, with a share of them held back long
// enough for their sender to checkpoint several times (the parked
// messages that make a sender's SendCounts non-monotone in the trace).
func shuffledTrace(src *rng.Source, hosts, msgs int) *Trace {
	tr := New(hosts)
	counts := make([]int, hosts)
	for h := range counts {
		counts[h] = 1
	}
	type pending struct {
		id uint64
		to mobile.HostID
	}
	var inflight []pending
	for sent := 0; sent < msgs || len(inflight) > 0; {
		if sent < msgs && (len(inflight) < 2 || src.Intn(3) > 0) {
			from := mobile.HostID(src.Intn(hosts))
			to := mobile.HostID((int(from) + 1 + src.Intn(hosts-1)) % hosts)
			tr.RecordSend(uint64(sent), from, to, counts[from], des.Time(sent))
			inflight = append(inflight, pending{uint64(sent), to})
			sent++
			if src.Intn(3) == 0 {
				counts[from]++
			}
			continue
		}
		// Mostly the oldest message, sometimes any: the oldest ones that
		// keep being skipped are the late arrivals.
		k := 0
		if src.Intn(4) == 0 {
			k = src.Intn(len(inflight))
		} else if len(inflight) > 1 && src.Intn(8) == 0 {
			k = 1
		}
		p := inflight[k]
		inflight = append(inflight[:k], inflight[k+1:]...)
		if src.Intn(5) == 0 {
			counts[p.to]++
		}
		tr.RecordDeliver(p.id, counts[p.to], des.Time(sent))
	}
	return tr
}

// indexReference derives the three tables from their definitions with a
// comparison sort, each send record's fields read through the trace's
// accessors.
func indexReference(tr *Trace) *Index {
	evs := make([]MessageEvent, tr.Len())
	for i := range evs {
		evs[i] = tr.Event(i)
	}
	return indexOf(evs, tr.NumHosts())
}

func sameTables(a, b *Index) bool {
	// slices.Equal per host: one with no traffic holds an empty carved
	// slice on one side and nil on the other.
	return slices.Equal(a.Seq, b.Seq) &&
		slices.EqualFunc(a.Sends, b.Sends, slices.Equal[[]SendRecord]) &&
		slices.EqualFunc(a.Recvs, b.Recvs, slices.Equal[[]int32])
}

func TestIndexMatchesReference(t *testing.T) {
	late := 0
	for seed := uint64(1); seed <= 30; seed++ {
		src := rng.New(seed)
		tr := shuffledTrace(src, 2+src.Intn(7), 300)
		ix := tr.Index()
		if want := indexReference(tr); !sameTables(ix, want) {
			t.Fatalf("seed %d: index differs from its definition\n got %v\nwant %v", seed, ix.Sends, want.Sends)
		}
		for _, s := range ix.Sends {
			for k := 1; k < len(s); k++ {
				if s[k].Pos < s[k-1].Pos {
					late++
				}
			}
		}
	}
	if late == 0 {
		t.Fatal("no trace had a sender whose sends arrived out of order; the merge was never exercised")
	}
}

// TestIndexWorstCaseOrder: a sender whose messages arrive in exactly the
// reverse of the order they were sent in (every one but the first is
// late) still sorts.
func TestIndexWorstCaseOrder(t *testing.T) {
	const msgs = 500
	tr := New(2)
	for i := 0; i < msgs; i++ {
		tr.RecordSend(uint64(i), 0, 1, 1+i/3, des.Time(i))
	}
	for i := msgs - 1; i >= 0; i-- {
		tr.RecordDeliver(uint64(i), 1, des.Time(msgs))
	}
	if !sameTables(tr.Index(), indexReference(tr)) {
		t.Fatal("reversed deliveries: index differs from its definition")
	}
}

// TestIndexCachedUntilGrowth: one build per trace size, however often it
// is asked for.
func TestIndexCachedUntilGrowth(t *testing.T) {
	tr := shuffledTrace(rng.New(4), 4, 50)
	ix := tr.Index()
	if tr.Index() != ix {
		t.Fatal("unchanged trace indexed twice")
	}
	tr.RecordSend(1000, 0, 1, 99, 1000)
	if tr.Index() != ix {
		t.Fatal("a send still in flight is no event; the index must survive it")
	}
	tr.RecordDeliver(1000, 99, 1001)
	grown := tr.Index()
	if grown == ix || len(grown.Seq) != tr.Len() || !sameTables(grown, indexReference(tr)) {
		t.Fatal("index not rebuilt after a delivery")
	}
	tr.History().Join(4, 0, 1002)
	if wider := tr.Index(); wider == grown || len(wider.Sends) != 5 || len(wider.Recvs) != 5 {
		t.Fatal("index not rebuilt after a join")
	}
}

// TestIndexRejectsFallingRecvCount: the binary searches of the recovery
// analysis rest on RecvCount never decreasing along a receiver's
// deliveries; a trace that breaks it is named, not mis-measured.
func TestIndexRejectsFallingRecvCount(t *testing.T) {
	tr := New(3)
	tr.RecordSend(1, 0, 2, 1, 0)
	tr.RecordDeliver(1, 4, 1)
	tr.RecordSend(2, 1, 0, 1, 2) // another receiver in between
	tr.RecordDeliver(2, 1, 3)
	tr.RecordSend(3, 1, 2, 1, 4)
	tr.RecordDeliver(3, 3, 5) // host 2 falls from 4 to 3 at event 2
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"host 2", "from 4 to 3", "event 2"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	tr.Index()
}

// TestIndexAllocs gates the index's price: 24 bytes per event — a 16-byte
// send record (position, receiver and both counts) plus a 32-bit delivery
// list entry and ordinal — plus per-host headers, and nothing once it is
// built.
func TestIndexAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	const hosts, msgs = 50, 40000
	tr := shuffledTrace(rng.New(9), hosts, msgs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.Index()
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / msgs
	t.Logf("index build: %.2f B per event", perEvent)
	// 24 B retained; the late arrivals' scratch records and the per-host
	// tables ride on top during the build.
	if perEvent > 26 {
		t.Errorf("index build allocates %.2f B per event, want 24 plus small change", perEvent)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Index() }); n != 0 {
		t.Errorf("a built index costs %.0f allocations per Index() call", n)
	}
}
