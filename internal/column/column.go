// Package column provides Column, the append-only indexed sequence that
// the run's history, its views' count columns and TP's per-host tables
// are kept in. Its entries live in chunks that never move: appending
// never copies an entry, so a column allocates about what it keeps, and
// an entry, once written, stays where it is for the column's life.
package column

import (
	"errors"
	"math/bits"
)

// Chunk k holds entry 0 for k = 0 and entries [2^(k-1), 2^k) for k in
// 1..maxShift: the sizes double from one entry, so a column of a tiny
// world stays tiny. Every later chunk holds maxChunk entries.
const (
	maxShift = 12
	maxChunk = 1 << maxShift
)

// Column is an append-only sequence of T read by index. A chunk is made
// at its full length and never reallocated; only the two chunk
// directories grow by append. The zero value is an empty column.
type Column[T any] struct {
	// small holds chunks 0..maxShift, entries [0, maxChunk); big the
	// maxChunk-entry chunks after them, as arrays, so reading one needs
	// no bounds check beyond the directory's.
	small [][]T
	big   []*[maxChunk]T
	cur   []T // the newest chunk's written entries; its capacity is the chunk's
	base  int // the index of cur's first entry
}

// Len returns the number of entries.
func (c *Column[T]) Len() int { return c.base + len(c.cur) }

// Append adds v as entry Len().
func (c *Column[T]) Append(v T) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, v) // within the chunk's capacity: it never moves
}

// Extend appends n zero entries inside one chunk and returns them. A
// chunk without room for them is padded out with zero entries first. n
// must be at most maxChunk.
func (c *Column[T]) Extend(n int) []T {
	if n > maxChunk {
		panic("column: Extend of more than one chunk")
	}
	for cap(c.cur)-len(c.cur) < n {
		c.cur = c.cur[:cap(c.cur)]
		c.grow()
	}
	c.cur = c.cur[:len(c.cur)+n]
	return c.cur[len(c.cur)-n : len(c.cur) : len(c.cur)]
}

// grow adds the next chunk. It stays out of line so that Append inlines.
//
//go:noinline
func (c *Column[T]) grow() {
	c.base += len(c.cur)
	if k := len(c.small); k <= maxShift {
		c.cur = make([]T, 0, max(1<<k>>1, 1))
		c.small = append(c.small, c.cur[:cap(c.cur)])
		return
	}
	chunk := new([maxChunk]T)
	c.big = append(c.big, chunk)
	c.cur = chunk[:0]
}

// errRange is what reading or writing an entry that does not exist
// panics with.
var errRange = errors.New("column: index out of range")

// At returns entry i, which must exist.
func (c *Column[T]) At(i int) T {
	if uint(i) >= uint(c.Len()) {
		panic(errRange)
	}
	if i >= maxChunk {
		return c.big[i>>maxShift-1][i&(maxChunk-1)]
	}
	k := bits.Len(uint(i))
	return c.small[k][i-1<<k>>1]
}

// Set overwrites entry i, which must exist.
func (c *Column[T]) Set(i int, v T) {
	if uint(i) >= uint(c.Len()) {
		panic(errRange)
	}
	if i >= maxChunk {
		c.big[i>>maxShift-1][i&(maxChunk-1)] = v
		return
	}
	k := bits.Len(uint(i))
	c.small[k][i-1<<k>>1] = v
}

// ChunkOf returns the written entries of the chunk holding entry i,
// which must exist, and the index of that chunk's first entry. Every
// column has the same chunk boundaries, so a reader walks several of them
// side by side, or moves on to nearby entries, without locating each
// entry.
func (c *Column[T]) ChunkOf(i int) ([]T, int) {
	if uint(i) >= uint(c.Len()) {
		panic(errRange)
	}
	var s []T
	start := i &^ (maxChunk - 1)
	if i >= maxChunk {
		s = c.big[i>>maxShift-1][:]
	} else {
		k := bits.Len(uint(i))
		s, start = c.small[k], 1<<k>>1
	}
	return s[:min(len(s), c.Len()-start)], start
}
