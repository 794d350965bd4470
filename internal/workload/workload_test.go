package workload

import (
	"math"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

func passthroughCallbacks(net *mobile.Network) Callbacks {
	return Callbacks{
		Send: func(from, to mobile.HostID) {
			if _, err := net.Send(from, to, nil); err != nil {
				panic(err)
			}
		},
		Receive: func(h mobile.HostID) bool { return net.TryReceive(h) != nil },
	}
}

func run(t *testing.T, cfg Config, seed uint64, horizon des.Time) (*Driver, *mobile.Network) {
	t.Helper()
	sim := des.New()
	net, err := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(sim, net, cfg, seed, passthroughCallbacks(net))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	sim.Run(horizon)
	return d, net
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.PComm = -0.1 },
		func(c *Config) { c.PComm = 1.5 },
		func(c *Config) { c.PSend = -0.1 },
		func(c *Config) { c.PSend = 1.1 },
		func(c *Config) { c.OperationMean = 0 },
		func(c *Config) { c.TSwitch = 0 },
		func(c *Config) { c.PSwitch = 2 },
		func(c *Config) { c.DisconnectMean = 0 },
		func(c *Config) { c.Heterogeneity = -1 },
		func(c *Config) { c.FastFactor = 0.5 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
}

func TestDriverRequiresCallbacks(t *testing.T) {
	sim := des.New()
	net, _ := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{})
	if _, err := NewDriver(sim, net, DefaultConfig(), 1, Callbacks{}); err == nil {
		t.Fatal("missing callbacks must fail")
	}
}

func TestPermanenceMeanHeterogeneity(t *testing.T) {
	c := DefaultConfig()
	c.TSwitch = 1000
	c.Heterogeneity = 0.3
	// With 10 hosts, hosts 0..2 are fast.
	fast, slow := 0, 0
	for h := mobile.HostID(0); h < 10; h++ {
		switch c.PermanenceMean(h, 10) {
		case 100:
			fast++
		case 1000:
			slow++
		default:
			t.Fatalf("unexpected mean for host %d", h)
		}
	}
	if fast != 3 || slow != 7 {
		t.Fatalf("fast=%d slow=%d", fast, slow)
	}
	c.Heterogeneity = 0
	if c.PermanenceMean(0, 10) != 1000 {
		t.Fatal("H=0 must make all hosts slow")
	}
}

func TestSendReceiveMix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PComm = 1.0   // every operation communicates
	cfg.TSwitch = 1e9 // effectively no mobility
	d, _ := run(t, cfg, 42, 20000)
	c := d.Counters()
	ops := c.Sends + c.Receives + c.EmptyReceives + c.Internal
	if ops < 150000 {
		t.Fatalf("too few operations: %d", ops)
	}
	sendRate := float64(c.Sends) / float64(ops)
	if math.Abs(sendRate-0.4) > 0.02 {
		t.Fatalf("send rate %.3f, want ~0.4", sendRate)
	}
	// With P_s < 0.5 the queues drain: nearly every sent message is
	// eventually received.
	if c.Receives < c.Sends*9/10 {
		t.Fatalf("receives %d lag sends %d", c.Receives, c.Sends)
	}
}

func TestHandoffRateMatchesTSwitch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSwitch = 500
	cfg.PSwitch = 1.0
	d, _ := run(t, cfg, 7, 50000)
	c := d.Counters()
	// Expected ~ 10 hosts * 50000 / 500 = 1000 hand-offs.
	if c.Handoffs < 800 || c.Handoffs > 1200 {
		t.Fatalf("handoffs = %d, want ~1000", c.Handoffs)
	}
	if c.Disconnects != 0 {
		t.Fatalf("disconnects = %d with PSwitch=1", c.Disconnects)
	}
}

func TestDisconnectionLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSwitch = 300
	cfg.PSwitch = 0.0 // always disconnect: stay Exp(100), gone Exp(1000)
	d, net := run(t, cfg, 11, 30000)
	c := d.Counters()
	if c.Disconnects == 0 {
		t.Fatal("no disconnections happened")
	}
	// Reconnections track disconnections (the last one may be pending).
	if c.Reconnects < c.Disconnects-10 || c.Reconnects > c.Disconnects {
		t.Fatalf("reconnects=%d disconnects=%d", c.Reconnects, c.Disconnects)
	}
	// Each cycle is ~100 connected + ~1000 disconnected, so hosts spend
	// most time disconnected; the network must reflect a mix by the end.
	connected := 0
	for i := 0; i < net.NumHosts(); i++ {
		if net.Host(mobile.HostID(i)).Connected() {
			connected++
		}
	}
	if connected == net.NumHosts() {
		t.Fatal("expected some hosts to be disconnected at the horizon")
	}
}

func TestOperationLoopPausesWhileDisconnected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSwitch = 30
	cfg.PSwitch = 0.0
	cfg.DisconnectMean = 1e7 // never comes back within the horizon
	d, net := run(t, cfg, 3, 5000)
	for i := 0; i < net.NumHosts(); i++ {
		if net.Host(mobile.HostID(i)).Connected() {
			t.Fatalf("host %d should be disconnected", i)
		}
	}
	// Operations must have stopped: with loops still running we would see
	// ~10*5000 ops; with pausing we see only the pre-disconnect fraction.
	c := d.Counters()
	ops := c.Sends + c.Receives + c.EmptyReceives + c.Internal
	if ops > 3000 {
		t.Fatalf("operation loop kept running while disconnected: %d ops", ops)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PSwitch = 0.8
	cfg.TSwitch = 200
	d1, _ := run(t, cfg, 99, 10000)
	d2, _ := run(t, cfg, 99, 10000)
	if d1.Counters() != d2.Counters() {
		t.Fatalf("same seed diverged: %+v vs %+v", d1.Counters(), d2.Counters())
	}
	d3, _ := run(t, cfg, 100, 10000)
	if d1.Counters() == d3.Counters() {
		t.Fatal("different seeds produced identical counters (suspicious)")
	}
}

func TestDestinationsAreUniform(t *testing.T) {
	sim := des.New()
	net, _ := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{})
	counts := make(map[mobile.HostID]int)
	cb := Callbacks{
		Send: func(from, to mobile.HostID) {
			if from == to {
				t.Fatal("self-send")
			}
			counts[to]++
		},
		Receive: func(h mobile.HostID) bool { return false },
	}
	cfg := DefaultConfig()
	cfg.PComm = 1.0
	cfg.TSwitch = 1e9
	d, err := NewDriver(sim, net, cfg, 5, cb)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	sim.Run(20000)
	total := 0
	for _, c := range counts {
		total += c
	}
	want := total / 10
	for h, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("destination %d chosen %d times, want ~%d", h, c, want)
		}
	}
}

func TestRingTopologyOnlyAdjacent(t *testing.T) {
	moves := []struct{ from, to mobile.MSSID }{}
	sim := des.New()
	net, _ := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{
		OnCellSwitch: func(now des.Time, h *mobile.Host, from, to mobile.MSSID) {
			moves = append(moves, struct{ from, to mobile.MSSID }{from, to})
		},
	})
	cfg := DefaultConfig()
	cfg.CellTopology = Ring
	cfg.TSwitch = 20
	cfg.PSwitch = 1.0
	d, err := NewDriver(sim, net, cfg, 3, passthroughCallbacks(net))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	sim.Run(2000)
	if len(moves) < 100 {
		t.Fatalf("too few moves: %d", len(moves))
	}
	r := net.NumStations()
	for _, m := range moves {
		diff := (int(m.to) - int(m.from) + r) % r
		if diff != 1 && diff != r-1 {
			t.Fatalf("non-adjacent move %d -> %d", m.from, m.to)
		}
	}
}

// Two hosts joining at the same simulated instant must not mirror each
// other: AddHost derives each host's operation and mobility streams from
// its host id (streams 2i and 2i+1 of the seed), so equal join times do
// not mean equal decisions. Regression for the decorrelation property of
// dynamic joins.
func TestJoinedHostsAreDecorrelated(t *testing.T) {
	const seed = 11
	sim := des.New()
	net, err := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	type decision struct {
		at des.Time
		to mobile.HostID
	}
	sends := make(map[mobile.HostID][]decision)
	cb := Callbacks{
		Send: func(from, to mobile.HostID) {
			sends[from] = append(sends[from], decision{sim.Now(), to})
		},
		Receive: func(h mobile.HostID) bool { return false },
	}
	cfg := DefaultConfig()
	cfg.PComm = 0.5 // plenty of sends inside a short horizon
	d, err := NewDriver(sim, net, cfg, seed, cb)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	var joined []mobile.HostID
	sim.After(500, "join", func(s *des.Simulator, now des.Time) {
		for i := 0; i < 2; i++ {
			id, err := net.AddHost(0)
			if err != nil {
				t.Error(err)
				return
			}
			d.AddHost(id, seed)
			joined = append(joined, id)
		}
	})
	sim.Run(3000)

	if len(joined) != 2 {
		t.Fatalf("joined %d hosts, want 2", len(joined))
	}
	a, b := sends[joined[0]], sends[joined[1]]
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("joined hosts inactive: %d and %d sends", len(a), len(b))
	}
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i].at != b[i].at {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("hosts %d and %d produced identical send schedules (%d sends): streams are correlated",
			joined[0], joined[1], len(a))
	}
}

// AddHost may be handed an id beyond the next one (the engine joins the
// host to the network first, and several can join at one instant): the
// records then grow past every skipped id in one block, and the skipped
// hosts must get exactly the records a driver built at that size gives
// them — streams, id, flags — ready for their own AddHost.
func TestAddHostSkippingIDs(t *testing.T) {
	const seed, skip = 23, 5
	build := func(extra int) (*Driver, *mobile.Network) {
		sim := des.New()
		mc := mobile.DefaultConfig()
		mc.NumHosts += extra
		net, err := mobile.New(sim, mc, mobile.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDriver(sim, net, DefaultConfig(), seed, passthroughCallbacks(net))
		if err != nil {
			t.Fatal(err)
		}
		return d, net
	}
	d, net := build(0)
	n := net.NumHosts()
	first := d.rec(0) // must survive the join: events in flight carry it
	var last mobile.HostID
	for i := 0; i <= skip; i++ {
		id, err := net.AddHost(0)
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	if int(last) != n+skip {
		t.Fatalf("last joined id = %d, want %d", last, n+skip)
	}
	d.AddHost(last, seed)

	want, _ := build(skip + 1)
	if got := d.numHosts(); got != want.numHosts() || got != n+skip+1 {
		t.Fatalf("records for %d hosts, reference has %d, want %d", got, want.numHosts(), n+skip+1)
	}
	if len(d.hosts) != 2 || len(d.hosts[1]) != skip+1 {
		t.Fatalf("the join grew %d blocks, want the original and one of exactly %d records", len(d.hosts), skip+1)
	}
	if d.rec(0) != first {
		t.Fatal("host 0's record moved across a join")
	}
	for i := 0; i < n+skip; i++ { // host n+skip itself has drawn its first delays
		if got, ref := *d.rec(mobile.HostID(i)), *want.rec(mobile.HostID(i)); got != ref {
			t.Fatalf("host %d: record %+v differs from a driver built at %d hosts: %+v", i, got, n+skip+1, ref)
		}
		if r := d.rec(mobile.HostID(i)); int(r.id) != i || r.paused || r.away {
			t.Fatalf("host %d: record %+v, want its own id and no flags", i, *r)
		}
	}
	// The joined host's streams are the ones a driver of that size starts
	// it with: replaying its start on the reference leaves them equal.
	want.scheduleOperation(want.rec(last))
	want.enterCell(want.rec(last))
	if *d.rec(last) != *want.rec(last) {
		t.Fatalf("host %d: record after its first schedule differs from a driver built at that size", last)
	}
}

// inlineHook wraps a scheduling surface and calls step on every step it
// allows in line, after the surface has allowed it.
type inlineHook struct {
	des.Sched
	step func(owner int, at des.Time)
}

func (s inlineHook) Inline(owner int, at des.Time, label string) bool {
	if !s.Sched.Inline(owner, at, label) {
		return false
	}
	s.step(owner, at)
	return true
}

// TestAwayMirrorsTheNetwork: hostRec.away is a copy of what the network
// knows, kept by hand. A run with disconnections, reconnections and joins
// checks it against the network at every operation of every host — the
// queued ones by wrapping the operation trampoline, the ones run in line
// by wrapping Sched.Inline, where the host must be connected — and once
// more for every host at the end, since a paused host operates no more.
// Production code has no branch for either check.
func TestAwayMirrorsTheNetwork(t *testing.T) {
	const seed = 17
	sim := des.New()
	net, err := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Disconnect(3); err != nil { // before the driver exists
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TSwitch = 60
	cfg.PSwitch = 0.5
	cfg.DisconnectMean = 40
	var d *Driver
	inline := 0
	sched := inlineHook{des.Solo(sim), func(owner int, at des.Time) {
		r := d.rec(mobile.HostID(owner))
		if r.away || !net.Host(mobile.HostID(owner)).Connected() {
			t.Fatalf("t=%v host %d: an operation at %v ran in line while away = %v, network says connected = %v",
				sim.Now(), owner, at, r.away, net.Host(mobile.HostID(owner)).Connected())
		}
		inline++
	}}
	d, err = NewDriverSched(sched, 1, net, cfg, seed, passthroughCallbacks(net))
	if err != nil {
		t.Fatal(err)
	}
	checked, away := 0, 0
	operate := d.opFn
	d.opFn = func(s *des.Simulator, now des.Time, arg any) {
		r := arg.(*hostRec)
		if r.away != !net.Host(mobile.HostID(r.id)).Connected() {
			t.Fatalf("t=%v host %d: away = %v, network says connected = %v", now, r.id, r.away, !r.away)
		}
		checked++
		if r.away {
			away++
		}
		operate(s, now, arg)
	}
	d.Start()
	for _, at := range []des.Time{500, 500, 1700} {
		sim.At(at, "join", func(*des.Simulator, des.Time) {
			id, err := net.AddHost(1)
			if err != nil {
				t.Error(err)
				return
			}
			d.AddHost(id, seed)
		})
	}
	sim.Run(20000)
	c := d.Counters()
	if c.Disconnects < 50 || c.Reconnects < 50 || away < 50 || checked < 10000 || inline < 10000 {
		t.Fatalf("%d disconnects, %d reconnects, %d operation events checked (%d while away), %d in-line operations checked: the run did not exercise the mirror",
			c.Disconnects, c.Reconnects, checked, away, inline)
	}
	if ops := c.Sends + c.Receives + c.EmptyReceives + c.Internal; ops != int64(checked-away+inline) {
		t.Fatalf("%d operations counted, %d checked (%d events, %d of them while away, and %d in line)",
			ops, checked-away+inline, checked, away, inline)
	}
	if d.numHosts() != 13 {
		t.Fatalf("%d hosts after three joins, want 13", d.numHosts())
	}
	for i := 0; i < d.numHosts(); i++ {
		if r := d.rec(mobile.HostID(i)); r.away != !net.Host(mobile.HostID(i)).Connected() {
			t.Fatalf("host %d at the horizon: away = %v, network says connected = %v", i, r.away, !r.away)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	c := DefaultConfig()
	c.CellTopology = Topology(9)
	if c.Validate() == nil {
		t.Fatal("unknown topology must fail")
	}
}

func TestSingleStationWorldDoesNotPanic(t *testing.T) {
	sim := des.New()
	cfg := mobile.DefaultConfig()
	cfg.NumMSS = 1
	net, err := mobile.New(sim, cfg, mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := DefaultConfig()
	wcfg.TSwitch = 50
	wcfg.PSwitch = 1.0
	d, err := NewDriver(sim, net, wcfg, 1, passthroughCallbacks(net))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	sim.Run(2000) // would panic on Intn(0) without the guard
	if d.Counters().Handoffs != 0 {
		t.Fatalf("handoffs = %d in a single-cell world", d.Counters().Handoffs)
	}
	if d.Counters().Sends == 0 {
		t.Fatal("communication should continue")
	}
}

func TestSingleHostWorld(t *testing.T) {
	sim := des.New()
	cfg := mobile.DefaultConfig()
	cfg.NumHosts = 1
	net, err := mobile.New(sim, cfg, mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(sim, net, DefaultConfig(), 1, passthroughCallbacks(net))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	sim.Run(2000)
	c := d.Counters()
	if c.Sends != 0 {
		t.Fatalf("a lone host sent %d messages", c.Sends)
	}
}

// TestNewDriverAllocs gates the driver's set-up cost: every host's record
// lives in one block and the event argument is a pointer into it, so a
// driver costs a constant number of allocations however many hosts it
// drives — the driver, its counters, four trampolines, the block list and
// the block.
func TestNewDriverAllocs(t *testing.T) {
	const n, limit = 20000, 12
	sim := des.New()
	mc := mobile.DefaultConfig()
	mc.NumHosts = n
	net, err := mobile.New(sim, mc, mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cb := passthroughCallbacks(net)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewDriver(sim, net, DefaultConfig(), 1, cb); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for a %d-host driver", allocs, n)
	if allocs > limit {
		t.Fatalf("%.0f allocations for a %d-host driver (limit %d): something per host is back", allocs, n, limit)
	}
}
