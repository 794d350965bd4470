package analysis

import "testing"

// TestDefaultConfigScopes pins the scope each analyzer gates the
// repository with.
func TestDefaultConfigScopes(t *testing.T) {
	tests := []struct {
		analyzer *Analyzer
		pkg      string
		want     bool
	}{
		// detlint covers the simulation packages...
		{Detlint, "mobickpt/internal/sim", true},
		{Detlint, "mobickpt/internal/des", true},
		{Detlint, "mobickpt/internal/des/equeue", true}, // subtree pattern
		{Detlint, "mobickpt/internal/pdes", true},       // parallel engine: lane code must stay clock-free
		{Detlint, "mobickpt/internal/protocol", true},
		{Detlint, "mobickpt/internal/mlog", true},
		{Detlint, "mobickpt/internal/obs", true},
		{Detlint, "mobickpt/internal/live", true},
		{Detlint, "mobickpt/internal/protoside", true},
		// ...and the CLIs, whose output lands in committed results/
		// artifacts, but not the sanctioned entropy source.
		{Detlint, "mobickpt/cmd/figures", true},
		{Detlint, "mobickpt/cmd/simlint", true},
		{Detlint, "mobickpt/internal/rng", false},
		{Detlint, "mobickpt/examples/quickstart", false},

		// The contract analyzers run where their annotations live.
		{Guardlint, "mobickpt/internal/live", true},
		{Guardlint, "mobickpt/internal/pdes", true},
		{Guardlint, "mobickpt/internal/mlog", true},
		{Guardlint, "mobickpt/internal/sim", true}, // the pipeline to the protocol side
		{Guardlint, "mobickpt/internal/protoside", false},
		{Lanelint, "mobickpt/internal/pdes", true},
		{Lanelint, "mobickpt/internal/sim", true},
		{Lanelint, "mobickpt/internal/protoside", false}, // the protocol side runs on the coordinator, never on a lane
		{Lanelint, "mobickpt/internal/live", false},

		// poollint polices pool consumers, not the pool owner. The
		// calendar/heap queue package keeps its own entry free list and
		// is in scope.
		{Poollint, "mobickpt/internal/sim", true},
		{Poollint, "mobickpt/internal/mobile", false},
		{Poollint, "mobickpt/internal/des", false},
		{Poollint, "mobickpt/internal/des/equeue", true},
		{Poollint, "mobickpt/internal/pdes", true}, // lane shards recycle shared pools like any sim client
	}
	for _, tt := range tests {
		if got := tt.analyzer.Applies(tt.pkg); got != tt.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", tt.analyzer.Name, tt.pkg, got, tt.want)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	tests := []struct {
		pat, path string
		want      bool
	}{
		{"*", "anything/at/all", true},
		{"internal/sim", "mobickpt/internal/sim", true},
		{"internal/sim", "internal/sim", true},
		{"internal/sim", "mobickpt/internal/simulator", false},
		{"internal/sim", "mobickpt/internal/sim/sub", false},
		{"internal/des/...", "mobickpt/internal/des", true},
		{"internal/des/...", "mobickpt/internal/des/equeue", true},
		{"internal/des/...", "mobickpt/internal/destiny", false},
		{"examples/...", "mobickpt/examples/quickstart", true},
		{"examples/...", "examples/quickstart", true},
	}
	for _, tt := range tests {
		if got := matchPattern(tt.pat, tt.path); got != tt.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", tt.pat, tt.path, got, tt.want)
		}
	}
}
