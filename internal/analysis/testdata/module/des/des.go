// Package des is the scratch module's stub of the scheduler API, so the
// seeded lanelint violation type-checks without the real repository.
package des

type Time float64

type ArgHandler func(s *Simulator, now Time, arg any)

type Simulator struct{}

func (s *Simulator) ScheduleArg(at Time, label string, fn ArgHandler, arg any) {}
