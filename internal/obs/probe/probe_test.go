package probe_test

import (
	"testing"

	"mobickpt/internal/des/equeue"
	"mobickpt/internal/obs/probe"
)

func TestPoolProbeLiveAndMerge(t *testing.T) {
	var total probe.PoolProbe
	if total.Live() != 0 {
		t.Fatalf("zero probe: Live = %d", total.Live())
	}
	shards := []probe.PoolProbe{
		{Hits: 5, Misses: 3, Recycled: 6},
		{Hits: 0, Misses: 4, Recycled: 1},
		// A lane that only receives recycles what other lanes acquired,
		// so a single shard may go negative; the merged pool may not.
		{Hits: 0, Misses: 0, Recycled: 2},
	}
	for i, want := range []int64{2, 3, -2} {
		if got := shards[i].Live(); got != want {
			t.Errorf("shard %d: Live = %d, want %d", i, got, want)
		}
	}
	for _, s := range shards {
		total.Merge(s)
	}
	if want := (probe.PoolProbe{Hits: 5, Misses: 7, Recycled: 9}); total != want {
		t.Errorf("merged = %+v, want %+v", total, want)
	}
	if total.Live() != 3 {
		t.Errorf("merged Live = %d, want 3", total.Live())
	}
}

// TestQueueProbesAgreeAcrossQueues drives a heap and a calendar queue
// with one push/pop sequence: the generic counters describe the
// sequence, not the structure, so both probes must report the same
// volumes and the same peak occupancy.
func TestQueueProbesAgreeAcrossQueues(t *testing.T) {
	var hp, cp probe.QueueProbe
	heap, cal := equeue.NewHeap(), equeue.NewCalendar()
	heap.SetProbe(&hp)
	cal.SetProbe(&cp)
	if hp.Kind != "heap" || cp.Kind != "calendar" {
		t.Fatalf("kinds = %q, %q", hp.Kind, cp.Kind)
	}

	var seq uint64
	x := uint64(42)
	push := func(n int) {
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			at := float64(x>>40) / 1024
			seq++
			heap.Push(&equeue.Entry{At: at, Seq: seq})
			cal.Push(&equeue.Entry{At: at, Seq: seq})
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			h, c := heap.Pop(), cal.Pop()
			if h.At != c.At || h.Seq != c.Seq {
				t.Fatalf("pop %d: heap (%v,%d), calendar (%v,%d)", i, h.At, h.Seq, c.At, c.Seq)
			}
		}
	}
	push(300) // peak
	pop(250)
	push(100)
	pop(150) // drained

	if hp.Pushes != 400 || hp.Pops != 400 || hp.MaxLen != 300 {
		t.Errorf("heap probe = pushes %d pops %d maxlen %d, want 400 400 300", hp.Pushes, hp.Pops, hp.MaxLen)
	}
	if cp.Pushes != hp.Pushes || cp.Pops != hp.Pops || cp.MaxLen != hp.MaxLen {
		t.Errorf("calendar probe = pushes %d pops %d maxlen %d, heap = %d %d %d",
			cp.Pushes, cp.Pops, cp.MaxLen, hp.Pushes, hp.Pops, hp.MaxLen)
	}
	if heap.Len() != 0 || cal.Len() != 0 {
		t.Errorf("queues not drained: %d, %d", heap.Len(), cal.Len())
	}
}
