package analysis

import (
	"strings"
	"testing"
)

func TestDefaultConfigScopes(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		analyzer, pkg string
		want          bool
	}{
		// detlint covers the simulation packages...
		{"detlint", "mobickpt/internal/sim", true},
		{"detlint", "mobickpt/internal/des", true},
		{"detlint", "mobickpt/internal/des/equeue", true}, // subtree pattern
		{"detlint", "mobickpt/internal/pdes", true},       // parallel engine: lane code must stay clock-free
		{"detlint", "mobickpt/internal/protocol", true},
		{"detlint", "mobickpt/internal/mlog", true},
		{"detlint", "mobickpt/internal/obs", true},
		{"detlint", "mobickpt/internal/live", true},
		// ...and the CLIs, whose output lands in committed results/
		// artifacts, but not the sanctioned entropy source.
		{"detlint", "mobickpt/cmd/figures", true},
		{"detlint", "mobickpt/cmd/simlint", true},
		{"detlint", "mobickpt/internal/rng", false},
		{"detlint", "mobickpt/examples/quickstart", false},

		// The contract analyzers run where their annotations live.
		{"guardlint", "mobickpt/internal/live", true},
		{"guardlint", "mobickpt/internal/pdes", true},
		{"guardlint", "mobickpt/internal/mlog", true},
		{"guardlint", "mobickpt/internal/sim", false},
		{"lanelint", "mobickpt/internal/pdes", true},
		{"lanelint", "mobickpt/internal/sim", true},
		{"lanelint", "mobickpt/internal/live", false},
		{"problint", "mobickpt/internal/des/equeue", true},
		{"problint", "mobickpt/internal/mobile", true},
		{"problint", "mobickpt/internal/obs", true},
		{"problint", "mobickpt/internal/obs/probe", false}, // owns its representation
		{"problint", "mobickpt/internal/live", false},

		// maporder is global except for example programs.
		{"maporder", "mobickpt/cmd/figures", true},
		{"maporder", "mobickpt/internal/obs", true},
		{"maporder", "mobickpt", true},
		{"maporder", "mobickpt/examples/quickstart", false},

		// poollint polices pool consumers, not the pool owner. The
		// calendar/heap queue package keeps its own entry free list and
		// is in scope.
		{"poollint", "mobickpt/internal/sim", true},
		{"poollint", "mobickpt/internal/mobile", false},
		{"poollint", "mobickpt/internal/des", false},
		{"poollint", "mobickpt/internal/des/equeue", true},

		// schedlint polices des clients, not the engine. Only the root
		// engine package is exempt: the queue implementations under
		// internal/des/equeue are covered.
		{"schedlint", "mobickpt/internal/sim", true},
		{"schedlint", "mobickpt/internal/mobile", true},
		{"schedlint", "mobickpt/internal/des", false},
		{"schedlint", "mobickpt/internal/des/equeue", true},
		{"schedlint", "mobickpt/internal/pdes", true}, // lane-handler rule polices pdes clients and the engine's tests alike
		{"poollint", "mobickpt/internal/pdes", true},  // lane shards recycle shared pools like any sim client

		// Unknown analyzers are in scope nowhere.
		{"speedlint", "mobickpt/internal/sim", false},
	}
	for _, tt := range tests {
		if got := cfg.Applies(tt.analyzer, tt.pkg); got != tt.want {
			t.Errorf("Applies(%q, %q) = %v, want %v", tt.analyzer, tt.pkg, got, tt.want)
		}
	}
}

func TestParseConfig(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		cfg, err := ParseConfig(`
# determinism only in two packages
detlint: internal/sim internal/des/...

maporder: * !examples/... !internal/live
`)
		if err != nil {
			t.Fatalf("ParseConfig: %v", err)
		}
		tests := []struct {
			analyzer, pkg string
			want          bool
		}{
			{"detlint", "mobickpt/internal/sim", true},
			{"detlint", "mobickpt/internal/des/equeue", true},
			{"detlint", "mobickpt/internal/mlog", false},
			{"maporder", "mobickpt/internal/obs", true},
			{"maporder", "mobickpt/examples/quickstart", false},
			{"maporder", "mobickpt/internal/live", false},
			{"poollint", "mobickpt/internal/sim", false}, // not configured
		}
		for _, tt := range tests {
			if got := cfg.Applies(tt.analyzer, tt.pkg); got != tt.want {
				t.Errorf("Applies(%q, %q) = %v, want %v", tt.analyzer, tt.pkg, got, tt.want)
			}
		}
		if got := strings.Join(cfg.Analyzers(), ","); got != "detlint,maporder" {
			t.Errorf("Analyzers() = %q, want %q", got, "detlint,maporder")
		}
	})

	malformed := []struct {
		name, text, wantErr string
	}{
		{"missing colon", "detlint internal/sim", `want "<analyzer>: <patterns>"`},
		{"unknown analyzer", "speedlint: *", `unknown analyzer "speedlint"`},
		{"duplicate scope", "detlint: *\ndetlint: internal/sim", "duplicate scope"},
		{"no includes", "detlint:", "at least one include pattern"},
		{"only excludes", "detlint: !internal/sim", "at least one include pattern"},
		{"empty exclude", "detlint: * !", "empty exclude pattern"},
	}
	for _, tt := range malformed {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseConfig(tt.text)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("ParseConfig(%q) err = %v, want substring %q", tt.text, err, tt.wantErr)
			}
		})
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

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the suite of 7", len(all), err)
	}
	two, err := ByName("detlint, schedlint")
	if err != nil || len(two) != 2 || two[0].Name != "detlint" || two[1].Name != "schedlint" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), `unknown analyzer "nope"`) {
		t.Fatalf("ByName(nope) err = %v", err)
	}
}
