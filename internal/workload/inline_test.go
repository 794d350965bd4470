package workload

import (
	"fmt"
	"reflect"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/race"
)

// inlineCase is one world for the in-line licence: the workload knobs,
// the world's shape, the joins and the horizon.
type inlineCase struct {
	seed     uint64
	cfg      Config
	hosts    int
	stations int
	joins    []des.Time
	horizon  des.Time
	resume   bool // run to horizon/2 first, then on to horizon
}

func (c inlineCase) String() string {
	return fmt.Sprintf("seed=%d pcomm=%.3g pswitch=%.3g tswitch=%.4g disc=%.4g topo=%d H=%.2g hosts=%d stations=%d joins=%v horizon=%v resume=%v",
		c.seed, c.cfg.PComm, c.cfg.PSwitch, c.cfg.TSwitch, c.cfg.DisconnectMean, c.cfg.CellTopology,
		c.cfg.Heterogeneity, c.hosts, c.stations, c.joins, c.horizon, c.resume)
}

// stamp is one fired event as the licence compares it.
type stamp struct {
	at    des.Time
	owner int
	label string
}

// recordSched wraps a scheduling surface and logs every event it queues,
// when the event fires — every one but the operations, which are what
// the two drivers are allowed to schedule differently.
type recordSched struct {
	des.Sched
	log *[]stamp
}

func (s recordSched) wrap(owner int, label string, fn des.ArgHandler) des.ArgHandler {
	if label == "op" {
		return fn
	}
	return func(sim *des.Simulator, now des.Time, arg any) {
		*s.log = append(*s.log, stamp{now, owner, label})
		fn(sim, now, arg)
	}
}

func (s recordSched) ScheduleArg(owner int, at des.Time, label string, fn des.ArgHandler, arg any) {
	s.Sched.ScheduleArg(owner, at, label, s.wrap(owner, label, fn), arg)
}

func (s recordSched) ScheduleArgAfter(owner int, delay des.Time, label string, fn des.ArgHandler, arg any) {
	s.Sched.ScheduleArgAfter(owner, delay, label, s.wrap(owner, label, fn), arg)
}

func (s recordSched) Route(from, owner int, at des.Time, label string, fn des.ArgHandler, arg any) {
	s.Sched.Route(from, owner, at, label, s.wrap(owner, label, fn), arg)
}

// inlineOutcome is everything the licence requires to be identical.
type inlineOutcome struct {
	work   Counters
	net    mobile.Counters
	fired  uint64
	events []stamp
}

// runInlineCase runs c once. everyOp hands the driver an ExtraDelay that
// adds exactly 0, which keeps every operation an event.
func runInlineCase(t testing.TB, c inlineCase, everyOp bool) inlineOutcome {
	t.Helper()
	sim := des.New()
	var out inlineOutcome
	sched := recordSched{des.Solo(sim), &out.events}
	mc := mobile.DefaultConfig()
	mc.NumHosts, mc.NumMSS = c.hosts, c.stations
	net, err := mobile.NewSched(sched, 1, mc, mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cb := passthroughCallbacks(net)
	if everyOp {
		cb.ExtraDelay = func(mobile.HostID) des.Time { return 0 }
	}
	d, err := NewDriverSched(sched, 1, net, c.cfg, c.seed, cb)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i, at := range c.joins {
		sim.At(at, "join", func(*des.Simulator, des.Time) {
			id, err := net.AddHost(mobile.MSSID(i % c.stations))
			if err != nil {
				t.Error(err)
				return
			}
			d.AddHost(id, c.seed)
		})
	}
	if c.resume {
		sim.Run(c.horizon / 2)
	}
	sim.Run(c.horizon)
	out.work, out.net, out.fired = d.Counters(), net.Counters(), sim.Fired()
	return out
}

// checkInline is the licence for one world: the in-line driver and the
// driver with every operation an event must agree on the workload and
// network counters, the events fired, and every non-operation event's
// time, host and label, in order.
func checkInline(t testing.TB, c inlineCase) (inline inlineOutcome) {
	t.Helper()
	inline, every := runInlineCase(t, c, false), runInlineCase(t, c, true)
	if inline.work != every.work {
		t.Fatalf("%v: workload counters\nin line  %+v\nevery op %+v", c, inline.work, every.work)
	}
	if inline.net != every.net {
		t.Fatalf("%v: network counters\nin line  %+v\nevery op %+v", c, inline.net, every.net)
	}
	if inline.fired != every.fired {
		t.Fatalf("%v: %d events fired in line, %d with every operation an event", c, inline.fired, every.fired)
	}
	if !reflect.DeepEqual(inline.events, every.events) {
		n := min(len(inline.events), len(every.events))
		i := 0
		for i < n && inline.events[i] == every.events[i] {
			i++
		}
		t.Fatalf("%v: non-operation events diverge at #%d of %d/%d", c, i, len(inline.events), len(every.events))
	}
	return inline
}

// TestInlineMatchesEveryOpAnEvent is the licence for running internal
// operations in line, over a grid of worlds: calm and stormy mobility,
// every communication probability from never to always, both
// topologies, heterogeneity, one-station and two-host worlds, joins
// mid-run, and a run resumed past an earlier horizon.
func TestInlineMatchesEveryOpAnEvent(t *testing.T) {
	base := inlineCase{seed: 1, cfg: DefaultConfig(), hosts: 10, stations: 5, horizon: 3000}
	var cases []inlineCase
	for seed := uint64(1); seed <= 3; seed++ {
		for _, pcomm := range []float64{0, 0.05, 0.5, 1} {
			for _, mob := range []struct{ pswitch, tswitch, disc float64 }{
				{1, 1000, 1000}, {0.5, 50, 30}, {0, 20, 200},
			} {
				c := base
				c.seed = seed
				c.cfg.PComm = pcomm
				c.cfg.PSwitch, c.cfg.TSwitch, c.cfg.DisconnectMean = mob.pswitch, mob.tswitch, mob.disc
				cases = append(cases, c)
			}
		}
	}
	shapes := []func(*inlineCase){
		func(c *inlineCase) { c.cfg.CellTopology = Ring },
		func(c *inlineCase) { c.cfg.Heterogeneity = 0.4 },
		func(c *inlineCase) { c.stations = 1 },
		func(c *inlineCase) { c.hosts, c.stations = 2, 2 },
		func(c *inlineCase) { c.hosts = 1 },
		func(c *inlineCase) { c.joins = []des.Time{300, 300, 1750.5, 3000} },
		func(c *inlineCase) { c.resume = true },
		func(c *inlineCase) { c.horizon = 0.5 },
	}
	for i, shape := range shapes {
		c := base
		c.seed = uint64(10 + i)
		c.cfg.PSwitch, c.cfg.TSwitch, c.cfg.DisconnectMean = 0.6, 80, 60
		shape(&c)
		cases = append(cases, c)
	}
	var ran, fired uint64
	for _, c := range cases {
		out := checkInline(t, c)
		ran += uint64(out.work.Internal)
		fired += out.fired
	}
	if ran < 100000 || fired < ran {
		t.Fatalf("%d internal operations over %d events fired: the grid exercised nothing", ran, fired)
	}
}

// FuzzDriverInline is the licence on worlds the fuzzer picks.
func FuzzDriverInline(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(255), uint16(1000), uint16(1000), false, uint8(0), uint8(10), uint8(5), uint8(0), uint16(2000))
	f.Add(uint64(7), uint8(128), uint8(100), uint16(40), uint16(30), true, uint8(100), uint8(2), uint8(1), uint8(3), uint16(1500))
	f.Add(uint64(3), uint8(0), uint8(0), uint16(10), uint16(500), false, uint8(255), uint8(1), uint8(3), uint8(1), uint16(777))
	f.Add(uint64(9), uint8(255), uint8(200), uint16(60), uint16(60), true, uint8(50), uint8(12), uint8(4), uint8(2), uint16(2999))
	f.Fuzz(func(t *testing.T, seed uint64, pcomm, pswitch uint8, tswitch, disc uint16, ring bool, het, hosts, stations, joins uint8, horizon uint16) {
		c := inlineCase{seed: seed, cfg: DefaultConfig(), hosts: 1 + int(hosts)%16, stations: 1 + int(stations)%6}
		c.cfg.PComm = float64(pcomm) / 255
		c.cfg.PSwitch = float64(pswitch) / 255
		c.cfg.TSwitch = 1 + float64(tswitch)
		c.cfg.DisconnectMean = 1 + float64(disc)
		c.cfg.Heterogeneity = float64(het) / 255
		if ring {
			c.cfg.CellTopology = Ring
		}
		c.horizon = des.Time(1+horizon%3000) + 0.25
		for j := 0; j < int(joins)%4; j++ {
			c.joins = append(c.joins, c.horizon*des.Time(j+1)/4)
		}
		c.resume = seed&1 == 1
		checkInline(t, c)
	})
}

// TestInlineStepZeroAlloc gates the in-line path: a world whose
// operations are all internal and whose hosts never move runs nearly
// every operation in line, across repeated Runs (each resumes the
// operations the last one's horizon queued), and allocates nothing.
func TestInlineStepZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	sim := des.New()
	net, err := mobile.New(sim, mobile.DefaultConfig(), mobile.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PComm = 0
	cfg.TSwitch = 1e12
	d, err := NewDriver(sim, net, cfg, 5, passthroughCallbacks(net))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	horizon := des.Time(100)
	sim.Run(horizon) // warm the event pool
	pending := sim.Pending()
	allocs := testing.AllocsPerRun(10, func() {
		horizon += 1000
		sim.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("in-line operations allocated %v times per Run, want 0", allocs)
	}
	if ops := d.Counters().Internal; ops < 100000 || uint64(ops) > sim.Fired() || sim.Pending() != pending {
		t.Fatalf("%d internal operations, %d events fired, %d pending (was %d): the gate measured nothing",
			ops, sim.Fired(), sim.Pending(), pending)
	}
}
