// Package sim deliberately violates the simlint contracts. The scratch
// module's packages sit under paths the production scope matches by
// suffix (scratch/internal/sim, scratch/internal/live), so the
// cmd/simlint end-to-end test fails this build through the same scope
// table the repository is gated with.
package sim

import (
	"time"

	"scratch/des"
	"scratch/mobile"
	"scratch/pdes"
)

// Stamp reads the wall clock: detlint must flag it.
func Stamp() time.Time {
	return time.Now()
}

// Reuse reads a message after recycling it: poollint must flag it.
func Reuse(n *mobile.Network, m *mobile.Message) uint64 {
	n.Recycle(m)
	return m.ID
}

// LaneEscape schedules on the global simulator from inside a pdes lane
// handler: lanelint must flag it.
func LaneEscape(c *pdes.Core) {
	c.Schedule(0, 0, 1, func(s *des.Simulator, now des.Time, arg any) {
		s.ScheduleArg(2, "escape", nil, nil)
	}, nil, false)
}
