package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/protocol"
)

// pipelineConfig is long enough that every run ships several rounds of
// chunks through the pipeline (about 6 000 records at n = 10).
func pipelineConfig() Config {
	c := DefaultConfig()
	c.Horizon = 3000
	c.Workload.TSwitch = 200
	c.Workload.PComm = 0.2
	return c
}

// runOutputs runs cfg with run and returns everything the run writes,
// as bytes: the ExportJSON, the Prometheus text and the timeline when
// on, and with a trace, the history's schedule and the decision log its
// replay writes for each protocol that replays.
func runOutputs(t *testing.T, cfg Config, run func(Config) (*Result, error)) map[string][]byte {
	t.Helper()
	if cfg.Metrics != nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Timeline != nil {
		cfg.Timeline = obs.NewTimeline()
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out["export"] = bytes.Clone(buf.Bytes())
	if cfg.Metrics != nil {
		buf.Reset()
		if err := cfg.Metrics.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out["metrics"] = bytes.Clone(buf.Bytes())
	}
	if cfg.Timeline != nil {
		buf.Reset()
		if err := cfg.Timeline.Export(&buf); err != nil {
			t.Fatal(err)
		}
		out["timeline"] = bytes.Clone(buf.Bytes())
	}
	for _, pr := range res.Protocols {
		if pr.Trace == nil {
			continue
		}
		sched := pr.Trace.History().Schedule(string(pr.Name), cfg.Seed)
		b, err := json.Marshal(sched)
		if err != nil {
			t.Fatal(err)
		}
		out["history"] = b
		if e, _ := protocol.Lookup(string(pr.Name)); !e.Live {
			continue
		}
		rep, err := Run(Config{Schedule: sched, MessageLog: cfg.MessageLog})
		if err != nil {
			t.Fatalf("%s: replay of the history: %v", pr.Name, err)
		}
		if b, err = json.Marshal(rep.Decisions); err != nil {
			t.Fatal(err)
		}
		out["decisions/"+string(pr.Name)] = b
	}
	return out
}

// TestPipelineMatchesInline holds the pipelined protocol side to the
// in-line one: every output of a run is byte-identical whether the
// records are applied by the consumer goroutine or on the world's own.
// The seven protocols exercise the drains (CL and PS marker rounds, MS
// ticks); metrics and timeline on together have the registry written
// from both goroutines.
func TestPipelineMatchesInline(t *testing.T) {
	cases := []struct {
		name  string
		apply func(*Config)
	}{
		{"all-protocols", func(c *Config) { c.Protocols = AllProtocols() }},
		{"trace", func(c *Config) { c.Protocols = AllProtocols(); c.RecordTrace = true }},
		{"trace-pessimistic", func(c *Config) {
			c.Protocols = []ProtocolName{TP, BCS, QBC, UNC}
			c.RecordTrace, c.MessageLog = true, mlog.Pessimistic
		}},
		{"trace-optimistic", func(c *Config) {
			c.Protocols = []ProtocolName{TP, BCS, QBC, UNC}
			c.RecordTrace, c.MessageLog = true, mlog.Optimistic
		}},
		{"joins-checks-gc-stormy", func(c *Config) {
			c.Protocols = AllProtocols()
			c.JoinTimes = []des.Time{400, 900, 1700}
			c.Checks = true
			c.GCInterval = 250
			c.Workload.Heterogeneity, c.Workload.PSwitch = 0.5, 0.8
			c.Workload.DisconnectMean = 300
		}},
		{"metrics-timeline", func(c *Config) {
			c.Protocols = AllProtocols()
			c.MessageLog = mlog.Optimistic
			c.Metrics, c.Timeline = obs.NewRegistry(), obs.NewTimeline()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipelineConfig()
			tc.apply(&cfg)
			piped, inline := runOutputs(t, cfg, Run), runOutputs(t, cfg, RunInline)
			if len(piped) != len(inline) {
				t.Fatalf("pipelined run wrote %d outputs, in-line %d", len(piped), len(inline))
			}
			for k, want := range inline {
				if got := piped[k]; !bytes.Equal(got, want) {
					t.Errorf("%s differs: pipelined %d bytes, in-line %d", k, len(got), len(want))
				}
			}
		})
	}
}

// TestPipelineMssOfNamesBothHosts: while a record is applied the side
// knows the station of its acting host only, and a question about any
// other host panics naming both.
func TestPipelineMssOfNamesBothHosts(t *testing.T) {
	e, err := newEngine(pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.cur[0] = record{kind: recDeliver, host: 3, mss: 7}
	if got := e.mssOf(3); got != 7 {
		t.Fatalf("mssOf(acting host) = %d, want the record's station 7", got)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "host 5") || !strings.Contains(msg, "host 3") {
			t.Fatalf("mssOf(5) while applying host 3's record: panic %q, want one naming both hosts", msg)
		}
	}()
	e.mssOf(mobile.HostID(5))
}

// failingDelivery is a protocol whose OnDeliver panics on the at-th
// delivery, past the first chunks, so the panic happens on the consumer.
type failingDelivery struct {
	protocol.Protocol
	at, seen int
}

var errProtocolSide = fmt.Errorf("protocol side failed")

func (f *failingDelivery) OnDeliver(h, from mobile.HostID, pb any) {
	if f.seen++; f.seen == f.at {
		panic(errProtocolSide)
	}
	f.Protocol.OnDeliver(h, from, pb)
}

// runFailing runs cfg with the first slot's protocol swapped for one
// whose 2 000th delivery panics, and returns what Run's goroutine
// recovered.
func runFailing(cfg Config) (v any) {
	defer func() { v = recover() }()
	run(cfg, func(e *engine) {
		e.Slots[0].Proto = &failingDelivery{Protocol: e.Slots[0].Proto, at: 2000}
	})
	return nil
}

// TestRunPanicFromProtocolSide: a panic in a protocol callback the
// consumer goroutine applies comes out of Run on the caller's goroutine,
// with the value the protocol panicked with.
func TestRunPanicFromProtocolSide(t *testing.T) {
	if v := runFailing(pipelineConfig()); v != errProtocolSide {
		t.Fatalf("recovered %v from Run, want the protocol's %v", v, errProtocolSide)
	}
}

// TestRunLeavesNoGoroutine: twenty runs, one of which panics on the
// protocol side, leave the goroutine count where it started.
func TestRunLeavesNoGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	cfg := pipelineConfig()
	cfg.Horizon = 500
	for i := range 20 {
		cfg.Seed = uint64(i + 1)
		if i == 7 {
			c := pipelineConfig()
			if v := runFailing(c); v != errProtocolSide {
				t.Fatalf("run %d recovered %v, want %v", i, v, errProtocolSide)
			}
			continue
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// A consumer that closed its done channel may not have returned yet.
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > start; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > start {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after 20 runs, %d before:\n%s", n, start, buf[:runtime.Stack(buf, true)])
	}
}

// TestPipelineStartsLazily: a run that pushes no record starts no
// consumer, and a longer one cycles a bounded set of chunks.
func TestPipelineStartsLazily(t *testing.T) {
	for _, horizon := range []des.Time{1e-3, 3000} {
		cfg := pipelineConfig()
		cfg.Horizon = horizon
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.run()
		switch {
		case horizon < 1 && e.pipe != nil:
			t.Fatalf("horizon %v: a run with no record made a pipeline", horizon)
		case horizon > 1 && (e.pipe == nil || e.pipe.out != 0 || len(e.pipe.spare) != chunksInFlight-1):
			t.Fatalf("horizon %v: pipeline %+v, want every chunk back after the final drain", horizon, e.pipe)
		}
		if e.cur[0] != (record{}) {
			t.Fatalf("horizon %v: cur = %+v after the run, want no record in flight", horizon, e.cur[0])
		}
	}
}
