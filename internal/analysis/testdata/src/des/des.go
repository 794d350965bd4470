// Package des is a fixture stub standing in for mobickpt's internal/des
// scheduler API, for lanelint fixtures.
package des

type Time float64

type Handler func(s *Simulator, now Time)

type ArgHandler func(s *Simulator, now Time, arg any)

type Simulator struct {
	now Time
}

func (s *Simulator) Now() Time { return s.now }

func (s *Simulator) After(delay Time, label string, h Handler) {}

func (s *Simulator) Schedule(at Time, label string, h Handler) {}

func (s *Simulator) ScheduleArg(at Time, label string, fn ArgHandler, arg any) {}

func (s *Simulator) Again(delay Time) {}
