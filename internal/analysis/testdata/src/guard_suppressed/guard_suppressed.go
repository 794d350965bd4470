// Package guard_suppressed shows the escape hatch: //lint:allow with a
// reason silences guardlint on that line and nowhere else.
package guard_suppressed

import "sync"

type Counter struct {
	mu sync.Mutex

	n int //guard:mu
}

func (c *Counter) sanctionedPeek() int {
	return c.n //lint:allow simlint/guardlint approximate stats read; a torn value is acceptable here
}

func (c *Counter) stillCaught() int {
	return c.n // want "read of field .n. requires mu held"
}
