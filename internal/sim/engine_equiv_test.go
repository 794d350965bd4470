package sim

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
)

// equivLanes is the lane-count sweep: 1 (parallel machinery, sequential
// schedule), 2, 4, and the machine's CPU count when it differs.
func equivLanes() []int {
	lanes := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		lanes = append(lanes, n)
	}
	return lanes
}

// exportOf runs cfg and returns its ExportJSON document.
func exportOf(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("engine=%s lanes=%d: %v", cfg.Engine, cfg.Lanes, err)
	}
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestEngineEquivalence is the tentpole acceptance check: the paper's
// full §5.1 configuration — TP, BCS and QBC over the default network and
// workload, with dynamic joins mid-run — must export byte-identically
// under the sequential engine and the conservative engine at every tested
// lane count. Parallel execution may only change wall-clock time, never a
// result.
func TestEngineEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	if testing.Short() {
		cfg.Horizon = 20000
	}
	cfg.JoinTimes = []des.Time{cfg.Horizon / 4, cfg.Horizon / 2}
	want := exportOf(t, cfg)
	for _, lanes := range equivLanes() {
		c := cfg
		c.Engine, c.Lanes = pdes.ModeConservative, lanes
		if got := exportOf(t, c); !bytes.Equal(got, want) {
			t.Errorf("lanes=%d: export differs from sequential\n--- want ---\n%s\n--- got ---\n%s",
				lanes, want, got)
		}
	}
}

// TestEngineEquivalenceAllProtocols widens the check to every selectable
// protocol — including the coordinated baselines, whose markers ride the
// world-stopped global timeline — plus periodic GC. One non-trivial lane
// count keeps the run short; TestEngineEquivalence covers the lane sweep.
func TestEngineEquivalenceAllProtocols(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 10000
	cfg.Protocols = AllProtocols()
	cfg.JoinTimes = []des.Time{2500, 6000}
	cfg.GCInterval = 2000
	want := exportOf(t, cfg)
	c := cfg
	c.Engine, c.Lanes = pdes.ModeConservative, 3
	if got := exportOf(t, c); !bytes.Equal(got, want) {
		t.Errorf("lanes=3: export differs from sequential\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestFigureTablesEngineEquivalence renders figure tables — the paper's
// published artifact — through the public sweep path under both engines
// and requires byte-identical text and CSV.
func TestFigureTablesEngineEquivalence(t *testing.T) {
	specs := []FigureSpec{
		{ID: 1, Title: "equiv-a", PSend: 0.4, PSwitch: 1.0, H: 0, TSwitch: []float64{100, 500}},
		{ID: 2, Title: "equiv-b", PSend: 0.4, PSwitch: 0.8, H: 0.3, TSwitch: []float64{200, 1000}},
	}
	seeds := Seeds(7, 2)
	render := func(base Config) string {
		tabs, err := SweepFigures(specs, base, seeds, 1)
		if err != nil {
			t.Fatalf("engine=%s: %v", base.Engine, err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.String())
			b.WriteString(tab.CSV())
		}
		return b.String()
	}
	want := render(sweepConfig())
	base := sweepConfig()
	base.Engine, base.Lanes = pdes.ModeConservative, 2
	if got := render(base); got != want {
		t.Errorf("figure tables differ from sequential\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestParallelRunStats checks the parallel engine reports its run
// accounting: the event totals reconcile with the sequential count and
// the instruments land in the registry.
func TestParallelRunStats(t *testing.T) {
	cfg := sweepConfig()
	seqRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.PDES != nil {
		t.Errorf("sequential run reported PDES stats: %+v", *seqRes.PDES)
	}
	c := cfg
	c.Engine, c.Lanes = pdes.ModeConservative, 2
	reg := obs.NewRegistry()
	c.Metrics = reg
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PDES
	if st == nil {
		t.Fatal("no PDES stats on parallel result")
	}
	if st.Lanes != 2 {
		t.Errorf("stats report %d lanes, want 2", st.Lanes)
	}
	if st.Processed == 0 {
		t.Error("no lane events processed")
	}
	if res.EventsFired != seqRes.EventsFired {
		t.Errorf("events fired %d, sequential %d", res.EventsFired, seqRes.EventsFired)
	}
	found := false
	for _, m := range reg.Snapshot().Counters {
		if m.Name == "pdes_events_processed_total" {
			found = true
			if m.Value != int64(st.Processed) {
				t.Errorf("pdes_events_processed_total = %d, stats say %d", m.Value, st.Processed)
			}
		}
	}
	if !found {
		t.Error("pdes_events_processed_total not in registry")
	}
}

// TestParallelValidation pins the configuration gates: everything the
// parallel engine cannot honor must be rejected at Validate time with a
// descriptive error, the lookahead rule must reject zero latencies, and a
// lane count the sequential engine would ignore is refused.
func TestParallelValidation(t *testing.T) {
	base := func() Config {
		c := DefaultConfig()
		c.Engine = pdes.ModeConservative
		c.Lanes = 2
		return c
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error; empty means valid
	}{
		{"default-parallel-ok", func(c *Config) {}, ""},
		{"conservative-ok", func(c *Config) { c.Engine = pdes.ModeConservative }, ""},
		{"lanes-zero-ok", func(c *Config) { c.Lanes = 0 }, ""},
		{"negative-lanes", func(c *Config) { c.Lanes = -1 }, "Lanes"},
		{"unknown-engine", func(c *Config) { c.Engine = pdes.Mode(99) }, "unknown Engine"},
		{"zero-wireless-latency", func(c *Config) { c.Mobile.WirelessLatency = 0 }, "WirelessLatency"},
		{"zero-wired-latency", func(c *Config) { c.Mobile.WiredLatency = 0 }, "WiredLatency"},
		{"contention", func(c *Config) { c.Mobile.Contention = true }, "Contention"},
		{"loss", func(c *Config) {
			c.Mobile.LossProbability = 0.1
			c.Mobile.RetransmitTimeout = 1
		}, "LossProbability"},
		{"checks", func(c *Config) { c.Checks = true }, "Checks"},
		{"record-trace", func(c *Config) { c.RecordTrace = true }, "RecordTrace"},
		{"message-log", func(c *Config) { c.MessageLog = mlog.Pessimistic }, "MessageLog"},
		{"progress", func(c *Config) { c.Progress = func(des.Time, uint64) {} }, "Progress"},
		{"checkpoint-latency", func(c *Config) {
			c.Protocols = []ProtocolName{QBC}
			c.CheckpointLatency = 0.5
		}, "CheckpointLatency"},
		// The same restrictions do not apply sequentially.
		{"sequential-zero-latency-ok", func(c *Config) {
			c.Engine, c.Lanes = pdes.ModeSequential, 0
			c.Mobile.WirelessLatency = 0
			c.Mobile.WiredLatency = 0
		}, ""},
		// But the sequential engine has no lanes to set.
		{"sequential-lanes", func(c *Config) { c.Engine, c.Lanes = pdes.ModeSequential, 4 }, "Lanes = 4"},
		{"sequential-negative-lanes", func(c *Config) { c.Engine, c.Lanes = pdes.ModeSequential, -3 }, "Lanes = -3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mut(&c)
			err := c.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validation passed, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
