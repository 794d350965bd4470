package analysis_test

import (
	"testing"

	"mobickpt/internal/analysis"
	"mobickpt/internal/analysis/analysistest"
)

// TestAnalyzers runs every analyzer of the suite over its fixture
// packages under testdata/src and checks the // want expectations.
func TestAnalyzers(t *testing.T) {
	fixtures := map[*analysis.Analyzer][]string{
		analysis.Detlint:   {"det_bad", "det_ok", "det_suppressed"},
		analysis.Poollint:  {"pool_bad", "pool_ok", "pool_suppressed"},
		analysis.Guardlint: {"guard_bad", "guard_ok", "guard_suppressed"},
		analysis.Lanelint:  {"lane_bad", "lane_ok"},
	}
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			if len(fixtures[a]) == 0 {
				t.Fatalf("no fixtures for %s", a.Name)
			}
			analysistest.Run(t, "testdata/src", a, fixtures[a]...)
		})
	}
}
