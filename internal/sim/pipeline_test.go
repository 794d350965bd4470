package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/trace"
)

// pipelineConfig is long enough that every run ships several rounds of
// chunks through the pipeline (about 6 000 entries at n = 10).
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
	for i, pr := range res.Protocols {
		if pr.Trace == nil {
			continue
		}
		sched := pr.Trace.History().Schedule(i, string(pr.Name), cfg.Seed)
		b, err := json.Marshal(sched)
		if err != nil {
			t.Fatal(err)
		}
		out["history/"+string(pr.Name)] = b
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
// entries are applied by the consumer goroutine or on the world's own.
// The seven protocols exercise every event kind and the one drain before
// a marker round (CL and PS marker rounds, MS ticks); metrics and timeline
// on together have the registry written from both goroutines.
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

// laneConfig is pipelineConfig on two lanes.
func laneConfig() Config {
	c := pipelineConfig()
	c.Engine, c.Lanes = pdes.ModeConservative, 2
	return c
}

// TestRunPanicFromProtocolSide: a panic in a protocol callback — applied
// by the consumer goroutine, or by the lane engine's coordinator — comes
// out of Run on the caller's goroutine, with the value the protocol
// panicked with.
func TestRunPanicFromProtocolSide(t *testing.T) {
	for _, cfg := range []Config{pipelineConfig(), laneConfig()} {
		if v := runFailing(cfg); v != errProtocolSide {
			t.Fatalf("engine %s: recovered %v from Run, want the protocol's %v", cfg.Engine, v, errProtocolSide)
		}
	}
}

// TestRunLeavesNoGoroutine: twenty runs, two of which panic on the
// protocol side — one sequential, one on two lanes — leave the goroutine
// count where it started.
func TestRunLeavesNoGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	cfg := pipelineConfig()
	cfg.Horizon = 500
	for i := range 20 {
		cfg.Seed = uint64(i + 1)
		if i == 7 || i == 13 {
			c := pipelineConfig()
			if i == 13 {
				c = laneConfig()
			}
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

// TestPipelineEntrySize pins what the pipeline ships per event: a bare
// 32-byte trace.Event, with no pointer in it (E41's chunk sweep was
// measured at 48 bytes, when an Event still carried the timeline's flow id
// and a pointer to its message's carrier rode beside it).
func TestPipelineEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(trace.Event{}); size != 32 {
		t.Errorf("unsafe.Sizeof(trace.Event{}) = %d, want 32", size)
	}
	if size, want := unsafe.Sizeof(chunk{}), unsafe.Sizeof(0)+chunkEvents*32; size != want {
		t.Errorf("unsafe.Sizeof(chunk{}) = %d, want %d: its count and %d bare events", size, want, chunkEvents)
	}
}

// TestPipelineStartsLazily: a run that pushes no event starts no
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
			t.Fatalf("horizon %v: a run with no event made a pipeline", horizon)
		case horizon > 1 && (e.pipe == nil || e.pipe.out != 0 || len(e.pipe.spare) != chunksInFlight-1):
			t.Fatalf("horizon %v: pipeline %+v, want every chunk back after the final drain", horizon, e.pipe)
		}
	}
}

// sideGuard holds a run's protocol calls to one goroutine at a time.
// entered counts the calls in progress, so a call that starts while
// another is still running is counted in overlaps; every call yields
// inside, which lets a second goroutine that could make a call make it
// then, even at GOMAXPROCS 1. calls is a plain counter every call
// writes: under the race detector, a call on one goroutine that the
// previous call's goroutine has not handed over to is reported as a race.
type sideGuard struct {
	entered  atomic.Int32
	overlaps atomic.Int64
	calls    int
}

// enter marks a call's start and returns what marks its end.
func (g *sideGuard) enter() (leave func()) {
	if g.entered.Add(1) != 1 {
		g.overlaps.Add(1)
	}
	g.calls++
	runtime.Gosched()
	return func() { g.entered.Add(-1) }
}

// guardedProto is a protocol whose every callback runs inside its guard.
type guardedProto struct {
	protocol.Protocol
	g *sideGuard
}

func (p *guardedProto) Init() { defer p.g.enter()(); p.Protocol.Init() }
func (p *guardedProto) OnSend(from, to mobile.HostID) any {
	defer p.g.enter()()
	return p.Protocol.OnSend(from, to)
}
func (p *guardedProto) OnDeliver(h, from mobile.HostID, pb any) {
	defer p.g.enter()()
	p.Protocol.OnDeliver(h, from, pb)
}
func (p *guardedProto) OnCellSwitch(h mobile.HostID, to mobile.MSSID) {
	defer p.g.enter()()
	p.Protocol.OnCellSwitch(h, to)
}
func (p *guardedProto) OnDisconnect(h mobile.HostID) { defer p.g.enter()(); p.Protocol.OnDisconnect(h) }
func (p *guardedProto) OnReconnect(h mobile.HostID, at mobile.MSSID) {
	defer p.g.enter()()
	p.Protocol.OnReconnect(h, at)
}
func (p *guardedProto) OnJoin(h mobile.HostID) int64 {
	defer p.g.enter()()
	return p.Protocol.OnJoin(h)
}

// guardedInitiator and guardedPeriodic keep a coordinated protocol's
// marker rounds and a periodic one's ticks, so the engine still drives
// them.
type guardedInitiator struct {
	*guardedProto
	init protocol.Initiator
}

func (p guardedInitiator) BeginSnapshot() []mobile.HostID {
	defer p.g.enter()()
	return p.init.BeginSnapshot()
}
func (p guardedInitiator) OnMarker(h mobile.HostID) { defer p.g.enter()(); p.init.OnMarker(h) }
func (p guardedInitiator) ControlMessages() int64   { return p.init.ControlMessages() }

type guardedPeriodic struct {
	*guardedProto
	per protocol.Periodic
}

func (p guardedPeriodic) OnTick(h mobile.HostID) { defer p.g.enter()(); p.per.OnTick(h) }

func guard(p protocol.Protocol, g *sideGuard) protocol.Protocol {
	gp := &guardedProto{p, g}
	if init, ok := p.(protocol.Initiator); ok {
		return guardedInitiator{gp, init}
	}
	if per, ok := p.(protocol.Periodic); ok {
		return guardedPeriodic{gp, per}
	}
	return gp
}

// TestProtocolSideOneGoroutine: in every world the engine drives — the
// sequential pipeline and the lane engine at 1, 2 and 4 lanes — the
// protocol side runs on one goroutine at a time. All seven protocols run
// through a guard, with joins, GC, metrics and timeline on, so every kind
// of event, marker round and tick is applied under it.
func TestProtocolSideOneGoroutine(t *testing.T) {
	for _, lanes := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprint("lanes", lanes), func(t *testing.T) {
			cfg := pipelineConfig()
			cfg.Protocols = AllProtocols()
			cfg.JoinTimes = []des.Time{400, 1700}
			cfg.GCInterval = 250
			cfg.Metrics, cfg.Timeline = obs.NewRegistry(), obs.NewTimeline()
			if lanes > 0 {
				cfg.Engine, cfg.Lanes = pdes.ModeConservative, lanes
			}
			g := &sideGuard{}
			if _, err := run(cfg, func(e *engine) {
				for i := range e.Slots {
					e.Slots[i].Proto = guard(e.Slots[i].Proto, g)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if n := g.overlaps.Load(); n > 0 {
				t.Fatalf("%d of %d protocol calls started while another was running", n, g.calls)
			}
			if g.calls < 10000 {
				t.Fatalf("only %d protocol calls", g.calls)
			}
		})
	}
}
