package equeue

import (
	"math"
	"testing"
)

// validate walks the calendar's whole structure and checks it against
// the live set:
//
//   - the near list is sorted by (At, Seq), its backing array is clear
//     outside it, and each of its records maps at or below the sweep
//     position;
//   - no bucket at or below the sweep position holds anything;
//   - every bucket record sits in the bucket slot() maps its time to, and
//     a chain is ⌈n/7⌉ chunks, all full but the head;
//   - every overflow record maps beyond the year, the overflow's chunk
//     list is exactly as long as its count needs, and ovMin is its exact
//     minimum;
//   - every record's inline time is its entry's time and its entry is
//     marked queued;
//   - the records are the live set, each once, and their count is Len;
//   - recycled chunks pin nothing.
func validate(t *testing.T, c *Calendar, live []*pair, op int) {
	t.Helper()
	seen := make(map[*Entry]bool, len(live))
	record := func(r calRec, where string, i int) {
		t.Helper()
		switch {
		case r.e == nil:
			t.Fatalf("op %d: %s %d: empty record among the filed ones", op, where, i)
		case r.at != r.e.At:
			t.Fatalf("op %d: %s %d: record time %v, entry time %v", op, where, i, r.at, r.e.At)
		case r.e.pos != calFiled:
			t.Fatalf("op %d: %s %d: entry at=%v seq=%d filed but marked %d", op, where, i, r.e.At, r.e.Seq, r.e.pos)
		case seen[r.e]:
			t.Fatalf("op %d: %s %d: entry at=%v seq=%d filed twice", op, where, i, r.e.At, r.e.Seq)
		}
		seen[r.e] = true
	}

	for i, r := range c.near[:cap(c.near)] {
		if (i < c.head || i >= len(c.near)) && r != (calRec{}) {
			t.Fatalf("op %d: near record %d outside the list [%d,%d) not cleared", op, i, c.head, len(c.near))
		}
	}
	for i, r := range c.near[c.head:] {
		record(r, "near", i)
		if s := c.slot(r.at); s > c.cur {
			t.Fatalf("op %d: near record at=%v maps to bucket %d, above the sweep at %d", op, r.at, s, c.cur)
		}
		if i > 0 && !c.near[c.head+i-1].before(r) {
			t.Fatalf("op %d: near list unsorted at %d: (%v,%d) then (%v,%d)", op, i,
				c.near[c.head+i-1].at, c.near[c.head+i-1].e.Seq, r.at, r.e.Seq)
		}
	}

	if float64(len(c.buckets)) != c.nbf {
		t.Fatalf("op %d: %d buckets, nbf %v", op, len(c.buckets), c.nbf)
	}
	for i := range c.buckets {
		b := &c.buckets[i]
		if i <= c.cur && (b.n != 0 || b.head != nil) {
			t.Fatalf("op %d: bucket %d at or below the sweep (%d) holds %d records", op, i, c.cur, b.n)
		}
		count, k := 0, tailLen(int(b.n))
		for ch := b.head; ch != nil; ch, k = ch.next, calChunkLen {
			for j, r := range ch.recs {
				if j >= k {
					if r != (calRec{}) {
						t.Fatalf("op %d: bucket %d: record beyond the head chunk's %d not cleared", op, i, k)
					}
					continue
				}
				record(r, "bucket", i)
				if s := c.slot(r.at); s != i {
					t.Fatalf("op %d: record at=%v maps to bucket %d, filed in %d (start=%v width=%v)", op, r.at, s, i, c.start, 1/c.inv)
				}
				count++
			}
		}
		if count != int(b.n) {
			t.Fatalf("op %d: bucket %d chains %d records, header says %d", op, i, count, b.n)
		}
	}

	if want := (c.ovN + calChunkLen - 1) / calChunkLen; len(c.ov) != want {
		t.Fatalf("op %d: overflow of %d records in %d chunks, want %d", op, c.ovN, len(c.ov), want)
	}
	ovMin := math.Inf(1)
	for i, ch := range c.ov {
		k := calChunkLen
		if i == len(c.ov)-1 {
			k = tailLen(c.ovN)
		}
		if ch.next != nil {
			t.Fatalf("op %d: overflow chunk %d is chained", op, i)
		}
		for j, r := range ch.recs {
			if j >= k {
				if r != (calRec{}) {
					t.Fatalf("op %d: overflow: record beyond the last chunk's %d not cleared", op, k)
				}
				continue
			}
			record(r, "overflow", i)
			if s := c.slot(r.at); s < len(c.buckets) {
				t.Fatalf("op %d: overflow record at=%v maps to bucket %d of %d: inside the year", op, r.at, s, len(c.buckets))
			}
			ovMin = min(ovMin, r.at)
		}
	}
	if c.ovMin != ovMin {
		t.Fatalf("op %d: ovMin = %v, the overflow's minimum is %v", op, c.ovMin, ovMin)
	}
	for _, p := range c.ov[len(c.ov):cap(c.ov)] {
		if p != nil {
			t.Fatalf("op %d: overflow chunk list pins a chunk beyond its length", op)
		}
	}

	if len(seen) != c.n || len(seen) != len(live) {
		t.Fatalf("op %d: %d records filed, Len %d, live %d", op, len(seen), c.n, len(live))
	}
	for _, p := range live {
		if !seen[&p.c] {
			t.Fatalf("op %d: live item %d (at=%v) is filed nowhere", op, p.id, p.c.At)
		}
	}
	for ch := c.free; ch != nil; ch = ch.next {
		if ch.recs != ([calChunkLen]calRec{}) {
			t.Fatalf("op %d: a recycled chunk still holds a record", op)
		}
	}
}

// TestCalendarForeignHandle: Remove confirms an entry by identity, so a
// handle queued in another queue, or never queued at all, is a no-op even
// though its pos says "queued".
func TestCalendarForeignHandle(t *testing.T) {
	l := newLockstep(t, true)
	for i := 0; i < 40; i++ {
		l.push(float64(i % 13))
	}
	l.pop()
	other := NewCalendar()
	for _, at := range []float64{0, 3.5, 12, 1e6} { // near list, a bucket, the overflow
		foreign, zero := Entry{At: at, Seq: 1}, Entry{At: at}
		other.Push(&foreign)
		if l.c.Remove(&foreign) || l.c.Remove(&zero) {
			t.Fatalf("Remove of a foreign handle at %v succeeded", at)
		}
		if !foreign.Queued() {
			t.Fatalf("Remove of a foreign handle at %v unmarked it", at)
		}
		l.step()
	}
	l.drain()
}
