package det_suppressed

import "time"

// A well-formed directive with a reason silences the finding on its
// line.
func profileStamp() time.Time {
	return time.Now() //lint:allow simlint/detlint profiling timestamp, never reaches the simulated trace
}

// A standalone directive covers the following line.
func profileStampAbove() time.Time {
	//lint:allow simlint/detlint profiling timestamp, never reaches the simulated trace
	return time.Now()
}

// Suppressing a different analyzer leaves detlint findings live.
func wrongAnalyzer() time.Time {
	//lint:allow simlint/poollint wrong analyzer on purpose
	return time.Now() // want "time.Now reads the wall clock"
}

// An unsuppressed use in the same file still fires: suppression is
// per-line, not per-file.
func stillCaught() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}
