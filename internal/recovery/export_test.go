package recovery

// The full-scan references of worklist_test.go, for the external test
// package (which, unlike this one, may import internal/sim).
var (
	PropagateReference       = propagateReference
	UnloggedOrphansReference = unloggedOrphansReference
	MeasureReference         = measureReference
	MeasureReplayReference   = measureReplayReference
)
