package protocol

import "mobickpt/internal/mobile"

// What the external tests of TP's change log (package protocol_test) see
// of its internals.

// NopCkpt is nopCkpt for the external tests.
var NopCkpt = nopCkpt

// LogShape reports the width of host h's frame (0 when it has none) and
// the length and capacity of its log.
func (t *TP) LogShape(h mobile.HostID) (frame, length, capacity int) {
	s := &t.hosts[h]
	return len(s.frame), len(s.log), cap(s.log)
}

// MergeView merges v into host h's state without a delivery's phase rule.
// A host in RECV phase has no live send view, so only this reaches a
// merge into a host whose last send's view is still shared.
func (t *TP) MergeView(h mobile.HostID, v *TPView) { t.hosts[h].mergeView(v) }
