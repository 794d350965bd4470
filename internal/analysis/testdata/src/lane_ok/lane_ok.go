// Package lane_ok exercises the sanctioned lane-handler patterns: none
// of these may produce a finding.
package lane_ok

import (
	"des"
	"pdes"
)

type Lane struct {
	ev  int
	buf []int
}

type Engine struct {
	core *pdes.Core

	//lane:shard
	lanes []Lane

	//lane:stopped
	epoch int

	seen map[int]bool // container fields stay entity-keyed
}

//lane:handler
func (e *Engine) onEvent(i int) {
	l := &e.lanes[i] // pointer to the element, not a copy
	l.ev++
	e.lanes[i].ev = 3
	e.lanes[i].buf = append(e.lanes[i].buf, i)
	e.seen[i] = true
	for j := range e.lanes {
		_ = &e.lanes[j]
	}
}

// Not handler code: the stop-the-world phase may regrow the shards and
// advance the epoch.
func (e *Engine) grow() {
	e.lanes = append(e.lanes, Lane{})
	e.epoch++
}

// A lane handler schedules through the Core — the lane-safe path.
func (e *Engine) arm() {
	e.core.Schedule(0, 1, 10, func(s *des.Simulator, now des.Time, arg any) {
		e.core.Schedule(1, 1, now+5, nil, nil, false)
		_ = e.core.Now(1)
		_ = s.Now()
	}, nil, false)
}

// Outside handler code the global queue is fair game (pre-run set-up
// and world-stopped global events are single-threaded).
func (e *Engine) setup(s *des.Simulator) {
	s.ScheduleArg(10, "setup", nil, nil)
	e.core.Schedule(0, 0, 20, nil, nil, false)
}
