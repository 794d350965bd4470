package sim

import "scratch/probe"

// Bump writes a probe counter outside a //probe:writer function:
// problint must flag it.
func Bump(p *probe.Probe) {
	p.Events++
}
