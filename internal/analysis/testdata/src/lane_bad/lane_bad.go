// Package lane_bad violates the lane-sharding contract in every way
// lanelint knows how to catch.
package lane_bad

import (
	"des"
	"pdes"
)

type Lane struct {
	ev int
}

type Engine struct {
	core *pdes.Core

	//lane:shard
	lanes []Lane

	//lane:stopped regrown only at global barriers
	epoch int

	limit int // unannotated scalar of a shard-owning struct
}

//lane:handler
func (e *Engine) onEvent(i int) {
	e.lanes[i].ev++ // own shard element, indexed: fine
	e.epoch = 1     // want "write to world-stopped field .epoch. from lane-handler code"
	e.limit = 2     // want "write to unsharded field .limit. of a shard-owning struct"
	s := e.lanes[i] // want "copy of lane-shard element .struct value. from lane-handler code"
	_ = s
	e.lanes = nil               // want "reassignment of lane-shard field .lanes. from lane-handler code"
	for _, l := range e.lanes { // want "range over lane-shard field .lanes. copies each struct element"
		_ = l
	}
	e.stop() // want "call of world-stopped function stop from lane-handler code"
}

//lane:stopped legal only while every lane is parked
func (e *Engine) stop() {}

// A func literal passed to pdes.Core.Schedule is handler code too.
func (e *Engine) arm() {
	e.core.Schedule(0, 0, 1, func(s *des.Simulator, now des.Time, arg any) {
		e.epoch = 9 // want "write to world-stopped field .epoch. from lane-handler code"
	}, nil, false)
}

// Scheduling on the global simulator from a lane, nested literals
// included: they run on the same lane.
func (e *Engine) escape() {
	e.core.Schedule(0, 0, 10, func(s *des.Simulator, now des.Time, arg any) {
		s.ScheduleArg(20, "global", nil, nil)                     // want "des.Simulator.ScheduleArg called inside a pdes lane handler"
		s.After(1, "tick", func(s *des.Simulator, now des.Time) { // want "des.Simulator.After called inside a pdes lane handler"
			s.Schedule(30, "nested", nil) // want "des.Simulator.Schedule called inside a pdes lane handler"
		})
	}, nil, false)
}

//lane:handler
func (e *Engine) onTimer(s *des.Simulator) {
	s.Again(1) // want "des.Simulator.Again called inside a pdes lane handler"
}
