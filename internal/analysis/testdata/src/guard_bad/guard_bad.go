// Package guard_bad violates the //guard: contracts in every way
// guardlint knows how to catch.
package guard_bad

import "sync"

// Counter opts into guarding, so every non-mutex field must carry a
// //guard: directive.
type Counter struct {
	mu sync.Mutex

	n int //guard:mu

	hits int // want "field .hits. has no //guard: annotation"
}

func (c *Counter) badRead() int {
	return c.n // want "read of field .n. requires mu held"
}

func (c *Counter) badWrite() {
	c.n = 1 // want "write to field .n. requires mu held"
}

func (c *Counter) doubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "c.mu locked while already held .deadlock."
}

func (c *Counter) leaks() {
	c.mu.Lock()
	c.n++
} // want "c.mu is still locked at function exit and has no deferred unlock"

func (c *Counter) leaksOnReturn(b bool) {
	c.mu.Lock()
	if b {
		return // want "c.mu is still locked at function exit and has no deferred unlock"
	}
	c.mu.Unlock()
}

// The lock drops on one branch only: after the rejoin the intersection
// no longer holds mu, so the second write is unprotected.
func (c *Counter) branchLeak(b bool) {
	c.mu.Lock()
	if b {
		c.mu.Unlock()
	}
	c.n = 2 // want "write to field .n. requires mu held"
	if !b {
		c.mu.Unlock()
	}
}

//locks:held mu
func (c *Counter) incLocked() { c.n++ }

func (c *Counter) callsWithoutLock() {
	c.incLocked() // want "call of incLocked requires mu held"
}

// A goroutine does not inherit the spawner's locks.
func (c *Counter) spawns() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "write to field .n. requires mu held"
	}()
}

// Leftover keeps two forms the grammar no longer has, a lock-order edge
// and a two-mutex guard: each is reported where it is written rather
// than read as some weaker contract.
type Leftover struct {
	mu    sync.Mutex
	dirMu sync.Mutex /* want "unknown //locks: directive .after." */ //locks:after mu

	both int /* want "bad mutex name .mu,dirMu." */ //guard:mu,dirMu
}

// Naming a non-mutex (or missing) sibling in a guard is malformed.
type BadDirective struct {
	mu sync.Mutex
	//guard:nosuch
	x int // want "is not a sibling sync.Mutex field"
}
