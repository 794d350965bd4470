package column

import (
	"errors"
	"testing"

	"mobickpt/internal/race"
)

// TestGeometry pins the chunk sizes — one entry, then doubling up to
// maxChunk, then maxChunk for good — through ChunkOf at both ends of
// every chunk.
func TestGeometry(t *testing.T) {
	var c Column[int32]
	const n = 5*maxChunk + 3
	for i := range n {
		c.Append(int32(i))
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	sizes := []int{1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096, 4096, 3}
	start := 0
	for k, size := range sizes {
		for _, i := range []int{start, start + size - 1} {
			chunk, lo := c.ChunkOf(i)
			if lo != start || len(chunk) != size {
				t.Fatalf("ChunkOf(%d) = %d entries from %d, want chunk %d: %d from %d", i, len(chunk), lo, k, size, start)
			}
			for j, v := range chunk {
				if int(v) != lo+j || c.At(lo+j) != v {
					t.Fatalf("chunk %d entry %d = %d (At %d), want %d", k, j, v, c.At(lo+j), lo+j)
				}
			}
		}
		start += size
	}
	if start != n {
		t.Fatalf("the chunks cover %d entries, want %d", start, n)
	}
}

// TestEntriesNeverMove holds a slice of an early chunk while the column
// grows past several more and rewrites one entry through Set: the held
// slice sees the write, so the chunk is the one the column keeps.
func TestEntriesNeverMove(t *testing.T) {
	var c Column[uint64]
	for i := range 100 {
		c.Append(uint64(i))
	}
	held, start := c.ChunkOf(70)
	for i := 100; i < 3*maxChunk; i++ {
		c.Append(uint64(i))
	}
	c.Set(70, 7000)
	if held[70-start] != 7000 || c.At(70) != 7000 {
		t.Fatalf("entry 70 reads %d held and %d through At, want 7000 both", held[70-start], c.At(70))
	}
	for i := range c.Len() {
		if want := uint64(i); i != 70 && c.At(i) != want {
			t.Fatalf("At(%d) = %d", i, c.At(i))
		}
	}
}

// TestOutOfRange: At, Set and ChunkOf refuse an entry not written yet,
// also one inside the newest chunk's unwritten rest.
func TestOutOfRange(t *testing.T) {
	var c Column[int]
	for i := range 5 {
		c.Append(i)
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"At(5)", func() { c.At(5) }},
		{"At(-1)", func() { c.At(-1) }},
		{"Set(6)", func() { c.Set(6, 1) }},
		{"ChunkOf(7)", func() { c.ChunkOf(7) }},
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, errRange) {
					t.Errorf("%s: panic %v, want %v", tc.name, err, errRange)
				}
			}()
			tc.f()
		}()
	}
}

// TestColumnAllocs: appending allocates the chunks and the directories'
// growth and nothing else — no entry is ever copied into a bigger array,
// so a long column allocates close to what it keeps.
func TestColumnAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	const n = 64 * maxChunk
	allocs := testing.AllocsPerRun(1, func() {
		var c Column[int32]
		for i := range n {
			c.Append(int32(i))
		}
	})
	// 13 doubling chunks, 63 full ones, and the two directories'
	// doublings.
	if allocs > 13+63+20 {
		t.Fatalf("%v allocations for %d entries", allocs, n)
	}
}

// TestExtendPastDoublingAnd64FullChunks extends columns by runs of one to
// seven entries across every doubling chunk and past 64 full chunks: no
// run straddles a chunk, a chunk is padded only when it has no room for
// the run, padding reads as zero, and every run, held from its Extend to
// the end, sees what Set wrote to its entries: it is the column's own. A run of a whole chunk pads
// out the rest; one of more panics.
func TestExtendPastDoublingAnd64FullChunks(t *testing.T) {
	for w := 1; w <= 7; w++ {
		var c Column[int32]
		var runs [][]int32
		padded := 0
		for c.Len() <= (1+64)*maxChunk {
			before := c.Len()
			run := c.Extend(w)
			start := c.Len() - w
			if len(run) != w || cap(run) != w {
				t.Fatalf("width %d: Extend returned len %d cap %d", w, len(run), cap(run))
			}
			chunk, lo := c.ChunkOf(start)
			if last, _ := c.ChunkOf(start + w - 1); lo+len(last) <= start+w-1 || &chunk[start-lo] != &run[0] {
				t.Fatalf("width %d: the run at %d is not inside the chunk from %d", w, start, lo)
			}
			if start > before {
				if ch, lo := c.ChunkOf(before); lo+len(ch)-before >= w {
					t.Fatalf("width %d: padded from %d although its chunk had room", w, before)
				}
				for i := before; i < start; i++ {
					if c.At(i) != 0 {
						t.Fatalf("width %d: padding entry %d reads %d", w, i, c.At(i))
					}
				}
				padded += start - before
			}
			for j := range run {
				c.Set(start+j, int32(len(runs)*w+j+1))
			}
			runs = append(runs, run)
		}
		if c.Len() != len(runs)*w+padded {
			t.Fatalf("width %d: Len %d for %d runs and %d padding entries", w, c.Len(), len(runs), padded)
		}
		i := 0
		for k, run := range runs {
			for i < c.Len() && c.At(i) == 0 {
				i++
			}
			for j, v := range run {
				if want := int32(k*w + j + 1); v != want || c.At(i+j) != want {
					t.Fatalf("width %d: run %d entry %d holds %d, the column %d; want %d", w, k, j, v, c.At(i+j), want)
				}
			}
			i += w
		}
	}
	var c Column[int32]
	c.Append(1)
	if run := c.Extend(maxChunk); len(run) != maxChunk || c.Len() != 2*maxChunk {
		t.Fatalf("a whole-chunk run after one entry: len %d, Len %d; want %d and %d", len(run), c.Len(), maxChunk, 2*maxChunk)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extend of maxChunk+1 entries did not panic")
		}
	}()
	c.Extend(maxChunk + 1)
}
