package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/pdes"
	"mobickpt/internal/race"
)

// TestQueueAblationIdentical is the calendar's gate at the engine level:
// a full paper-environment run — every protocol, hand-offs, disconnects,
// dynamic joins, the runtime invariant checker on — must produce
// identical results on the calendar queue every run uses and on the
// reference heap. Both realize the same (time, seq) total order, so any
// divergence is a queue bug.
func TestQueueAblationIdentical(t *testing.T) {
	run := func(kind des.QueueKind) *Result {
		c := testConfig()
		c.Horizon = 3000
		c.Protocols = AllProtocols()
		c.JoinTimes = []des.Time{700, 1900}
		c.Queue = kind
		return mustRun(t, c)
	}
	a, b := run(des.QueueHeap), run(des.QueueCalendar)
	if a.EventsFired != b.EventsFired {
		t.Fatalf("events fired: heap=%d calendar=%d", a.EventsFired, b.EventsFired)
	}
	if a.Network != b.Network {
		t.Fatalf("network counters diverged:\nheap:     %+v\ncalendar: %+v", a.Network, b.Network)
	}
	for i := range a.Protocols {
		pa, pb := &a.Protocols[i], &b.Protocols[i]
		if pa.Ntot != pb.Ntot || pa.Basic != pb.Basic || pa.Forced != pb.Forced ||
			pa.PiggybackBytes != pb.PiggybackBytes || pa.CtrlMessages != pb.CtrlMessages {
			t.Fatalf("%s diverged across queues:\nheap:     Ntot=%d B=%d F=%d pb=%d ctrl=%d\ncalendar: Ntot=%d B=%d F=%d pb=%d ctrl=%d",
				pa.Name, pa.Ntot, pa.Basic, pa.Forced, pa.PiggybackBytes, pa.CtrlMessages,
				pb.Ntot, pb.Basic, pb.Forced, pb.PiggybackBytes, pb.CtrlMessages)
		}
	}
}

// TestScaleSmoke runs a genuinely large world — 50,000 hosts (5,000
// under -short) with a mid-run join — end to end: the flat-array arena,
// sharded host storage, and the calendar's O(1) scheduling have to
// survive contact with a host count three orders beyond the paper's.
// The same world then runs again on two conservative lanes, which must
// land on the identical result — the scale smoke doubles as the parallel
// engine's big-world gate (exercised with -short in CI).
func TestScaleSmoke(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	cfg := DefaultConfig()
	cfg.Mobile.NumHosts = n
	cfg.Mobile.NumMSS = (n + 1) / 2
	cfg.Workload.TSwitch = 100
	cfg.Horizon = 20
	cfg.Protocols = []ProtocolName{QBC}
	cfg.JoinTimes = []des.Time{10}

	var seq *Result
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"sequential", func(*Config) {}},
		{"conservative-2-lanes", func(c *Config) { c.Engine, c.Lanes = pdes.ModeConservative, 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			tc.mut(&c)
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalHosts != n+1 {
				t.Fatalf("final hosts = %d, want %d", res.FinalHosts, n+1)
			}
			pr := res.Protocol(QBC)
			if pr.Initial != int64(n+1) {
				t.Fatalf("initial checkpoints = %d, want %d", pr.Initial, n+1)
			}
			if pr.Ntot == 0 {
				t.Fatal("no checkpoints beyond the initial ones: the world never moved")
			}
			if len(pr.Store.Chain(mobile.HostID(n))) == 0 {
				t.Fatal("joined host has no checkpoints")
			}
			if seq == nil {
				seq = res
				return
			}
			sp := seq.Protocol(QBC)
			if res.EventsFired != seq.EventsFired || pr.Ntot != sp.Ntot ||
				pr.Basic != sp.Basic || pr.Forced != sp.Forced ||
				pr.PiggybackBytes != sp.PiggybackBytes {
				t.Fatalf("parallel diverged: events=%d/%d Ntot=%d/%d B=%d/%d F=%d/%d pb=%d/%d",
					res.EventsFired, seq.EventsFired, pr.Ntot, sp.Ntot,
					pr.Basic, sp.Basic, pr.Forced, sp.Forced,
					pr.PiggybackBytes, sp.PiggybackBytes)
			}
		})
	}
}

// TestScalePoints pins the sweep's shape: decades from 10 to the cap, TP
// only while affordable, horizons shrinking with n but never below the
// mobility floor.
func TestScalePoints(t *testing.T) {
	pts := ScalePoints(1000000)
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	wantN := 10
	for _, p := range pts {
		if p.Hosts != wantN {
			t.Fatalf("point hosts = %d, want %d", p.Hosts, wantN)
		}
		wantN *= 10
		hasTP := false
		for _, name := range p.Protocols {
			if name == TP {
				hasTP = true
			}
		}
		if want := p.Hosts <= ScaleTPMaxHosts; hasTP != want {
			t.Fatalf("n=%d: TP included = %v, want %v", p.Hosts, hasTP, want)
		}
		if p.Horizon < scaleMinHorizon {
			t.Fatalf("n=%d: horizon %v below floor", p.Hosts, p.Horizon)
		}
		if cfg := p.Config(1, des.QueueCalendar); cfg.Validate() != nil {
			t.Fatalf("n=%d: invalid config: %v", p.Hosts, cfg.Validate())
		}
	}
}

// TestMeasureScale runs the smallest point and checks that its
// deterministic fields agree with the same run on the reference heap (the
// bit-identity gate applied to E21 itself), that it names the calendar
// as its queue, and that the JSON round-trips.
func TestMeasureScale(t *testing.T) {
	pt := ScalePoints(10)[0]
	pt.Horizon = 2000 // keep the test quick; the budget-derived horizon is for benches
	m, err := MeasureScale(pt, 1, pdes.ModeSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	heap := mustRun(t, pt.Config(1, des.QueueHeap))
	if m.Events != heap.EventsFired {
		t.Fatalf("events: calendar=%d heap=%d", m.Events, heap.EventsFired)
	}
	for i := range heap.Protocols {
		pr := &heap.Protocols[i]
		if v := float64(pr.Ntot) / float64(pt.Hosts) / float64(pt.Horizon) * 1000; m.NtotRate[string(pr.Name)] != v {
			t.Fatalf("%s ntot rate: calendar=%v heap=%v", pr.Name, m.NtotRate[string(pr.Name)], v)
		}
	}
	if m.NtotRate["TP"] <= 0 {
		t.Fatalf("TP ntot rate = %v, want > 0", m.NtotRate["TP"])
	}
	if m.PiggybackPerMsg["TP"] <= m.PiggybackPerMsg["QBC"] {
		t.Fatalf("TP piggyback (%v B/msg) should already exceed QBC's (%v) at n=10",
			m.PiggybackPerMsg["TP"], m.PiggybackPerMsg["QBC"])
	}
	var buf bytes.Buffer
	if err := WriteScaleJSON(&buf, []*ScaleMeasurement{m}); err != nil {
		t.Fatal(err)
	}
	var back []ScaleMeasurement
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Hosts != 10 || back[0].Queue != "calendar" || back[0].Events != m.Events {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestMeasureScaleSelectsEngine: the engine and lane count `figures
// -scale -engine ... -lanes ...` names must be the ones that make the
// run. (They were parsed and dropped: E22's documented command timed the
// sequential engine.) The parallel measurement carries the engine's own
// report, and no deterministic field depends on who made the run.
func TestMeasureScaleSelectsEngine(t *testing.T) {
	pt := ScalePoints(10)[0]
	pt.Horizon = 2000
	seq, err := MeasureScale(pt, 1, pdes.ModeSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MeasureScale(pt, 1, pdes.ModeConservative, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seq.PDES != nil {
		t.Fatalf("sequential measurement reports a parallel engine: %+v", *seq.PDES)
	}
	if par.PDES == nil || par.PDES.Lanes != 2 || par.PDES.Windows == 0 {
		t.Fatalf("conservative/2 measurement came from %+v, want a two-lane conservative run with windows", par.PDES)
	}
	if par.Events != seq.Events || !reflect.DeepEqual(par.NtotRate, seq.NtotRate) ||
		!reflect.DeepEqual(par.PiggybackPerMsg, seq.PiggybackPerMsg) {
		t.Fatalf("deterministic fields differ across engines:\nsequential   %+v\nconservative %+v", *seq, *par)
	}
}

// TestScaleQueueGeometry pins what E21's n = 100 row once recorded: on
// Brown's calendar one resize sampled a cluster of near-simultaneous
// events, the bucket width collapsed to 1.8e-11, and from then on a pop
// swept 229 buckets and nine pops in ten fell back to a search of all of
// them — a tenth of the sweep's horizon is enough to get there. A queue
// that re-derives its geometry every year cannot stay in such a state;
// the probes bound what it may cost at the three small points of the
// sweep: buckets examined per pop, bucket-array reallocations per run
// (the count follows the population with hysteresis, not every wobble of
// it), and year starts — each deals the whole population, so a year has
// to pop a fair share of one. Each point keeps its whole horizon: nine
// operations in ten run in line, never touching the queue, so a tenth of
// it would pop too few events to mean anything.
func TestScaleQueueGeometry(t *testing.T) {
	for _, pt := range ScalePoints(1000) {
		cfg := pt.Config(1, des.QueueCalendar)
		cfg.Probes = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := res.Probes.GlobalQueue
		t.Logf("n=%d: %d pops, %.3f buckets examined and %.2f records shifted per pop, %d year starts, %d reallocations, peak %d",
			pt.Hosts, q.Pops, float64(q.SweepSteps)/float64(q.Pops), float64(q.ChainSteps)/float64(q.Pops), q.DirectScans, q.Resizes, q.MaxLen)
		if q.Pops < 500_000 {
			t.Fatalf("n=%d: only %d pops: the run is too short to mean anything", pt.Hosts, q.Pops)
		}
		if per := float64(q.SweepSteps) / float64(q.Pops); per > 2 {
			t.Errorf("n=%d: %.1f buckets examined per pop (limit 2): the bucket width has collapsed", pt.Hosts, per)
		}
		if per := float64(q.ChainSteps) / float64(q.Pops); per > 16 {
			t.Errorf("n=%d: %.1f records shifted per pop (limit 16): the buckets are far too wide", pt.Hosts, per)
		}
		if q.Resizes > 4 {
			t.Errorf("n=%d: %d bucket-array reallocations (limit 4): the bucket count is flapping", pt.Hosts, q.Resizes)
		}
		if dealt := float64(q.DirectScans) * float64(q.MaxLen); dealt > 16*float64(q.Pops) {
			t.Errorf("n=%d: %d year starts at a population of up to %d for %d pops: the years are too short to pay for their deals",
				pt.Hosts, q.DirectScans, q.MaxLen, q.Pops)
		}
	}
}

// TestSetupAllocsLinear is the set-up complexity gate (DESIGN §7):
// constructing a world must cost O(n) bytes. A run with a horizon too
// short for any event to fire is construction, the initial checkpoints
// and the first schedule of every host, so the bytes it allocates at 2n
// hosts against n must stay near 2x — a per-host table regrown to exact
// fit on every new host (des.Solo's ordinal table once was) makes it
// 4x — and each host must cost a bounded number of bytes.
func TestSetupAllocsLinear(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	setupBytes := func(n int) float64 {
		cfg := ScalePoint{Hosts: n, Horizon: 1e-9, Protocols: []ProtocolName{BCS, QBC}}.Config(1, des.QueueCalendar)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.EventsFired != 0 {
			t.Fatalf("n=%d: %d events fired, want a set-up-only run", n, res.EventsFired)
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const n = 20000
	small, large := setupBytes(n), setupBytes(2*n)
	t.Logf("set-up bytes: %.0f at n=%d (%.0f B/host), %.0f at n=%d (%.0f B/host), ratio %.2f",
		small, n, small/n, large, 2*n, large/(2*n), large/small)
	if r := large / small; r >= 2.5 {
		t.Fatalf("set-up bytes grew %.2fx for 2x the hosts (limit 2.5): construction is superlinear", r)
	}
	if per := large / (2 * n); per >= 2048 {
		t.Fatalf("set-up allocates %.0f B per host (limit 2048)", per)
	}
}

// TestTinyWorldSetupAllocs is the other end of the set-up gate: the six
// paper figures are 126 runs of a ten-host world, and replay-recovery's
// analyses start from zero-horizon runs as small, so what one such run
// allocates is multiplied into `setup_s` on both. Layouts tuned for 1e5
// hosts tend to pay here: host records carved in 4096-record chunks
// moved paper-figures' set-up by a third before they became one
// exact-size block, and mobile's one 4096-record arena shard per network
// was 426 784 of the 450 536 bytes a run allocated until each network's
// shards were sized to its hosts (E49). The run now measures 26 344 bytes
// (go1.24, linux/amd64); the limit is that plus 10 %.
func TestTinyWorldSetupAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	const limit = 28_978
	cfg := DefaultConfig()
	cfg.Horizon = 1e-9
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ { // the least of five: the runtime's own allocations come and go
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.EventsFired != 0 {
			t.Fatalf("%d events fired, want a set-up-only run", res.EventsFired)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a zero-horizon run of the ten-host world allocates %d bytes", best)
	if best > limit {
		t.Fatalf("a zero-horizon run of the ten-host world allocates %d bytes (limit %d)", best, limit)
	}
}

// BenchmarkZeroHorizonPaperSweep is the paper-figures benchmark's set-up
// sample in process: the six figures' 126 ten-host runs (three seeds)
// with nothing to simulate. With -benchmem, B/op is what one sweep
// allocates; gc/op is the collections it triggers. Run it at a fixed
// count so two trees compare (go test -run '^$' -bench
// ZeroHorizonPaperSweep -benchtime 50x -benchmem ./internal/sim).
func BenchmarkZeroHorizonPaperSweep(b *testing.B) {
	base := DefaultConfig()
	base.Horizon = 1e-3
	seeds := Seeds(1, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range b.N {
		if _, err := SweepFigures(PaperFigures(), base, seeds, 1); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

// TestHeldResultHeap bounds what a finished run keeps reachable through
// its Result: every protocol's checkpointer closes over the protocol
// side, so an engine that embedded the side by value was pinned by
// ProtocolResult.Instance whole — event slabs, message pool, payload
// carriers and workload driver, 7 times the live heap of the result
// without its protocols (go1.24, linux/amd64). A held 20 000-host BCS+QBC
// result must keep at most twice what it keeps with every Instance
// dropped: the protocols' per-host state and the side's, about 1.3 times.
func TestHeldResultHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; heap bounds only hold without -race")
	}
	cfg := DefaultConfig()
	cfg.Mobile.NumHosts, cfg.Mobile.NumMSS = 20000, 100
	cfg.Horizon = 200
	cfg.Protocols = []ProtocolName{BCS, QBC}
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := live()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := live() - base
	for i := range res.Protocols {
		res.Protocols[i].Instance = nil
	}
	bare := live() - base
	runtime.KeepAlive(res)
	t.Logf("held result: %.1f MB live, %.1f MB without the protocol instances", float64(held)/1e6, float64(bare)/1e6)
	if held > 2*bare {
		t.Fatalf("a held result keeps %.1f MB live, %.1f MB without its protocol instances: want at most 2x", float64(held)/1e6, float64(bare)/1e6)
	}
}
