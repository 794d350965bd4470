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
