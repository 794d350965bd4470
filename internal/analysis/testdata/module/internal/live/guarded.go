package live

import "sync"

// Guarded deliberately reads its //guard: field unlocked: guardlint
// must flag it.
type Guarded struct {
	mu sync.Mutex
	n  int //guard:mu
}

func (g *Guarded) Peek() int {
	return g.n
}
