package main

import (
	"io"
	"runtime"

	"mobickpt/internal/des"
	"mobickpt/internal/des/equeue"
	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/sim"
	"mobickpt/internal/statestore"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/vclock"
	"mobickpt/internal/wire"
	"mobickpt/internal/workload"
)

// The micro suite times each layer from outside, through its exported
// functions, on inputs generated from the seed before the clock starts.
// Loops run a fixed number of iterations (never a fixed time), so every
// count a loop produces — allocations, probe steps, domino steps, bytes —
// repeats exactly on one seed.

// micro carries the suite's state: where metrics go and how big loops are.
type micro struct {
	rec   *recorder
	out   *Result
	seed  uint64
	smoke bool
}

// n scales a loop's iteration count down for the smoke test.
func (m *micro) n(full int) int {
	if m.smoke {
		return max(full/50, 16)
	}
	return full
}

// perOp times fn, which performs ops operations, under a span named after
// the metric, and records nanoseconds per operation.
func (m *micro) perOp(metric string, ops int, fn func()) {
	m.out.Layer[metric] = m.rec.timed(metric, fn) * 1e9 / float64(ops)
}

func (m *micro) set(metric string, v float64) { m.out.Layer[metric] = v }

// mallocsPer runs fn and returns heap allocations per operation, rounded
// down the way testing.AllocsPerRun does so a stray runtime allocation
// does not turn an exact 0 into 0.0001.
func mallocsPer(ops int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(ops))
}

// must panics on an error no input can cause: the timed loops drive the
// layers with inputs the suite itself built (connected hosts, well-formed
// frames), so an error there is a bug in the suite, and checking it any
// other way would put a branch and a return path into the measured loop.
func must(err error) {
	if err != nil {
		panic("bench: " + err.Error())
	}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink struct {
	f float64
	i int
	b []byte
	a any
}

func runMicro(sp Spec, rec *recorder) *Result {
	m := &micro{rec: rec, out: &Result{Layer: map[string]float64{}}, seed: sp.Seed, smoke: sp.Smoke}
	id := rec.begin("micro")
	defer rec.end(id)
	m.equeue()
	m.des()
	m.rng()
	m.mobileSmall()
	m.world1e5()
	m.protocols()
	m.vclockStorage()
	m.wire()
	m.mlog()
	m.trace()
	m.recovery()
	m.simExtras()
	m.pdes()
	m.obsCheck()
	m.live()
	m.statestore()
	return m.out
}

// increments returns a power-of-two table of Exp(1) hold-model
// increments drawn from the seed.
func (m *micro) increments(stream uint64) []float64 {
	src := rng.NewStream(m.seed, stream)
	inc := make([]float64, 1<<16)
	for i := range inc {
		inc[i] = src.Exp(1)
	}
	return inc
}

// hold fills q to depth and then pops one entry and pushes it back ops
// times; fn wraps the timed part.
func hold(q equeue.Queue, depth, ops int, inc []float64, timed func(func())) {
	mask := len(inc) - 1
	entries := make([]equeue.Entry, depth)
	for i := range entries {
		entries[i].At, entries[i].Seq = inc[i&mask], uint64(i)
		q.Push(&entries[i])
	}
	seq := uint64(depth)
	timed(func() {
		for i := 0; i < ops; i++ {
			e := q.Pop()
			e.At += inc[i&mask]
			e.Seq = seq
			seq++
			q.Push(e)
		}
	})
}

func (m *micro) equeue() {
	inc := m.increments(1)
	deep := m.n(200_000)
	for _, c := range []struct {
		metric string
		q      equeue.Queue
		depth  int
		ops    int
	}{
		{"equeue.heap.hold_ns.d32", equeue.NewHeap(), 32, m.n(2_000_000)},
		{"equeue.heap.hold_ns.d200k", equeue.NewHeap(), deep, m.n(1_000_000)},
		{"equeue.calendar.hold_ns.d32", equeue.NewCalendar(), 32, m.n(2_000_000)},
		{"equeue.calendar.hold_ns.d200k", equeue.NewCalendar(), deep, m.n(1_000_000)},
	} {
		hold(c.q, c.depth, c.ops, inc, func(loop func()) { m.perOp(c.metric, c.ops, loop) })
	}
	// The calendar's structural work, counted over fill plus hold: how far
	// it walks bucket chains and sweeps empty days per pop, and how often
	// it re-buckets. Counted in a pass of its own so the probe's
	// increments stay out of the timed one.
	var p probe.QueueProbe
	cal := equeue.NewCalendar()
	cal.SetProbe(&p)
	hold(cal, deep, m.n(1_000_000), inc, func(loop func()) { loop() })
	if p.Pops > 0 {
		m.set("equeue.calendar.chain_steps_per_pop", float64(p.ChainSteps)/float64(p.Pops))
		m.set("equeue.calendar.sweep_steps_per_pop", float64(p.SweepSteps)/float64(p.Pops))
	}
	m.set("equeue.calendar.resizes", float64(p.Resizes))
}

func (m *micro) des() {
	deep := m.n(200_000)
	shallow := m.n(2_000_000)
	var runS float64
	m.set("des.allocs_per_event", mallocsPer(shallow, func() {
		_, runS = holdModel(m.rec, "des.loop_ns_per_event.heap_d32", des.QueueHeap, 32, uint64(shallow), m.seed)
	}))
	m.set("des.loop_ns_per_event.heap_d32", runS*1e9/float64(shallow))
	events := m.n(1_000_000)
	_, runS = holdModel(m.rec, "des.loop_ns_per_event.calendar_d200k", des.QueueCalendar, deep, uint64(events), m.seed)
	m.set("des.loop_ns_per_event.calendar_d200k", runS*1e9/float64(events))

	// Cancel a pending event and re-queue it, at a pending-set depth of 1024.
	s := des.New()
	inc := m.increments(2)
	mask := len(inc) - 1
	noop := func(*des.Simulator, des.Time) {}
	handles := make([]*des.Event, 1024)
	for i := range handles {
		handles[i] = s.At(des.Time(inc[i&mask]), "pending", noop)
	}
	ops := m.n(500_000)
	m.perOp("des.cancel_reschedule_ns", ops, func() {
		for i := 0; i < ops; i++ {
			e := handles[i&1023]
			s.Cancel(e)
			s.Reschedule(e, des.Time(inc[i&mask]))
		}
	})

	// First schedule per emitter through the sequential Sched adapter: what
	// a world of n hosts pays once per host before the first event fires.
	n := m.n(100_000)
	sched := des.Solo(des.NewWith(des.QueueCalendar))
	argNoop := func(*des.Simulator, des.Time, any) {}
	m.perOp("des.solo_first_schedule_ns_per_emitter.n1e5", n, func() {
		for i := 0; i < n; i++ {
			sched.ScheduleArgAfter(i, des.Time(inc[i&mask]), "first", argNoop, nil)
		}
	})
}

func (m *micro) rng() {
	src := rng.NewStream(m.seed, 3)
	ops := m.n(5_000_000)
	m.perOp("rng.exp_ns", ops, func() {
		var sum float64
		for i := 0; i < ops; i++ {
			sum += src.Exp(1)
		}
		sink.f = sum
	})
	m.perOp("rng.bernoulli_ns", ops, func() {
		hits := 0
		for i := 0; i < ops; i++ {
			if src.Bernoulli(0.3) {
				hits++
			}
		}
		sink.i = hits
	})
}

// pairs returns n (from, to) host pairs with from != to, drawn from the seed.
func (m *micro) pairs(stream uint64, n, hosts int) [][2]mobile.HostID {
	src := rng.NewStream(m.seed, stream)
	ps := make([][2]mobile.HostID, n)
	for i := range ps {
		from := src.Intn(hosts)
		to := src.Intn(hosts - 1)
		if to >= from {
			to++
		}
		ps[i] = [2]mobile.HostID{mobile.HostID(from), mobile.HostID(to)}
	}
	return ps
}

// mobileSmall times the message path and the mobility operations on a
// 1000-host network.
func (m *micro) mobileSmall() {
	const hosts, stations = 1000, 500
	s := des.New()
	cfg := mobile.DefaultConfig()
	cfg.NumHosts, cfg.NumMSS = hosts, stations
	net, err := mobile.New(s, cfg, mobile.Hooks{})
	if err != nil {
		m.out.fail("mobile.New: %v", err)
		return
	}
	ops := m.n(200_000)
	ps := m.pairs(4, ops, hosts)
	// Uplink, wired hop and downlink each take one latency; 0.05 time
	// units lets every hop of one message fire.
	roundTrip := func() {
		for _, p := range ps {
			_, err := net.Send(p[0], p[1], nil)
			must(err)
			s.Run(s.Now() + 0.05)
			net.Recycle(net.TryReceive(p[1]))
		}
	}
	roundTrip() // fill the message and event pools
	var allocs float64
	m.perOp("mobile.send_receive_ns", ops, func() { allocs = mallocsPer(ops, roundTrip) })
	m.set("mobile.send_receive_allocs", allocs)

	m.perOp("mobile.switchcell_ns", ops, func() {
		for i := 0; i < ops; i++ {
			h := mobile.HostID(i % hosts)
			to := (net.Host(h).MSS() + 1) % stations
			must(net.SwitchCell(h, to))
		}
	})
	m.perOp("mobile.disconnect_reconnect_ns", ops, func() {
		for i := 0; i < ops; i++ {
			h := mobile.HostID(i % hosts)
			at := net.Host(h).MSS()
			must(net.Disconnect(h))
			must(net.Reconnect(h, at))
		}
	})
}

// world1e5 builds the scale-1e5 world once, protocol-free, and reports
// what each constructor costs per host — the set-up of the E21 decade,
// layer by layer.
func (m *micro) world1e5() {
	n := m.n(100_000)
	cfg := sim.ScalePoint{Hosts: n, Horizon: zeroHorizon, Protocols: []sim.ProtocolName{sim.BCS}}.Config(m.seed, des.QueueCalendar)
	s := des.NewWith(cfg.Queue)
	sched := des.Solo(s)
	var net *mobile.Network
	var err error
	m.perOp("mobile.new_ns_per_host.n1e5", n, func() { net, err = mobile.NewSched(sched, 1, cfg.Mobile, mobile.Hooks{}) })
	if err != nil {
		m.out.fail("mobile.NewSched: %v", err)
		return
	}
	cb := workload.Callbacks{
		Send:    func(from, to mobile.HostID) {},
		Receive: func(mobile.HostID) bool { return false },
	}
	var d *workload.Driver
	m.perOp("workload.newdriver_ns_per_host.n1e5", n, func() {
		d, err = workload.NewDriverSched(sched, 1, net, cfg.Workload, m.seed, cb)
	})
	if err != nil {
		m.out.fail("workload.NewDriverSched: %v", err)
		return
	}
	m.perOp("workload.start_ns_per_host.n1e5", n, d.Start)

	ops := m.n(2_000_000)
	src := rng.NewStream(m.seed, 5)
	ids := make([]mobile.HostID, 1<<16)
	for i := range ids {
		ids[i] = mobile.HostID(src.Intn(n))
	}
	m.perOp("mobile.locate_ns.n1e5", ops, func() {
		var acc mobile.MSSID
		for i := 0; i < ops; i++ {
			acc += net.Locate(ids[i&(len(ids)-1)])
		}
		sink.i = int(acc)
	})
}

// protoBench drives one protocol instance from outside, with
// storage.Store.Take as its checkpointer.
type protoBench struct {
	p     protocol.Protocol
	store *storage.Store
}

func newProtoBench(name string, n int) protoBench {
	stations := (n + 1) / 2
	store := storage.NewStore(storage.DefaultCostModel())
	mssOf := func(h mobile.HostID) mobile.MSSID { return mobile.MSSID(int(h) % stations) }
	ck := func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		return store.Take(h, mssOf(h), index, kind, 0)
	}
	var p protocol.Protocol
	switch name {
	case "TP":
		p = protocol.NewTP(n, ck, mssOf)
	case "BCS":
		p = protocol.NewBCS(n, ck)
	default:
		p = protocol.NewQBC(n, ck, store)
	}
	p.Init()
	return protoBench{p, store}
}

// exchange runs OnSend -> OnDeliver -> Recycle for every pair.
func (b protoBench) exchange(ps [][2]mobile.HostID) {
	r, _ := b.p.(protocol.Recycler)
	for _, pr := range ps {
		pb := b.p.OnSend(pr[0], pr[1])
		b.p.OnDeliver(pr[1], pr[0], pb)
		if r != nil {
			r.Recycle(pb)
		}
	}
}

func (m *micro) protocols() {
	// TP's checkpoints each store two n-entry vectors, so its n=1000 loops
	// are short: 10k exchanges already retain tens of megabytes.
	for _, c := range []struct {
		metric, proto string
		n, ops        int
	}{
		{"protocol.tp.send_deliver_ns.n10", "TP", 10, m.n(200_000)},
		{"protocol.bcs.send_deliver_ns.n1000", "BCS", 1000, m.n(500_000)},
		{"protocol.qbc.send_deliver_ns.n1000", "QBC", 1000, m.n(500_000)},
	} {
		b := newProtoBench(c.proto, c.n)
		ps := m.pairs(6, c.ops, c.n)
		m.perOp(c.metric, c.ops, func() { b.exchange(ps) })
		if c.proto == "BCS" {
			m.set("protocol.bcs.piggyback_bytes_per_msg", float64(b.p.PiggybackBytes())/float64(c.ops))
		}
	}
	ops := m.n(10_000)
	b := newProtoBench("TP", 1000)
	ps := m.pairs(7, ops, 1000)
	var allocs float64
	m.perOp("protocol.tp.send_deliver_ns.n1000", ops, func() { allocs = mallocsPer(ops, func() { b.exchange(ps) }) })
	m.set("protocol.tp.send_deliver_allocs.n1000", allocs)
	m.set("protocol.tp.piggyback_bytes_per_msg.n1000", float64(b.p.PiggybackBytes())/float64(ops))
	if copies, reuses := b.p.(*protocol.TP).SnapshotStats(); copies+reuses > 0 {
		m.set("protocol.tp.snapshot_reuse_share.n1000", float64(reuses)/float64(copies+reuses))
	}
	ckpts := m.n(2000)
	m.perOp("protocol.tp.basic_ckpt_ns.n1000", ckpts, func() {
		for i := 0; i < ckpts; i++ {
			b.p.OnCellSwitch(mobile.HostID(i%1000), mobile.MSSID(i%500))
		}
	})
	q := newProtoBench("QBC", 1000)
	ckpts = m.n(200_000)
	m.perOp("protocol.qbc.basic_ckpt_ns", ckpts, func() {
		for i := 0; i < ckpts; i++ {
			q.p.OnCellSwitch(mobile.HostID(i%1000), mobile.MSSID(i%500))
		}
	})
}

func (m *micro) vclockStorage() {
	const n = 1000
	v, loc := vclock.New(n, 0), vclock.New(n, 0)
	o, oloc := vclock.New(n, 0), vclock.New(n, 1)
	ops := m.n(200_000)
	m.perOp("vclock.merge_locations_ns.n1000", ops, func() {
		for i := 0; i < ops; i++ {
			o[i%n] = i // one entry of the incoming vector dominates each time
			v.MergeWithLocations(loc, o, oloc)
		}
	})

	store := storage.NewStore(storage.DefaultCostModel())
	takes := m.n(300_000)
	m.perOp("storage.take_ns", takes, func() {
		for i := 0; i < takes; i++ {
			store.Take(mobile.HostID(i%n), mobile.MSSID(i%7), i/n, storage.Basic, des.Time(i))
		}
	})
	// Chains are takes/n records long; look up the first record at or past
	// a drawn index, the recovery-line membership rule.
	depth := takes / n
	src := rng.NewStream(m.seed, 8)
	idx := make([]int, 1<<12)
	for i := range idx {
		idx[i] = src.Intn(depth)
	}
	lookups := m.n(1_000_000)
	m.perOp("storage.chain_lookup_ns", lookups, func() {
		for i := 0; i < lookups; i++ {
			sink.a = store.FirstWithIndexAtLeast(mobile.HostID(i%n), idx[i&(len(idx)-1)])
		}
	})
}

func tpPiggyback(n int) protocol.TPPiggyback {
	pb := protocol.TPPiggyback{Ckpt: vclock.New(n, 0), Loc: vclock.New(n, 0)}
	for i := 0; i < n; i++ {
		pb.Ckpt[i], pb.Loc[i] = 3*i+1, i%7
	}
	return pb
}

func (m *micro) wire() {
	for _, c := range []struct {
		suffix string
		pb     any
		ops    int
	}{
		{"index", protocol.IndexPiggyback(123456), m.n(3_000_000)},
		{"tp_n10", tpPiggyback(10), m.n(1_000_000)},
		{"tp_n1000", tpPiggyback(1000), m.n(20_000)},
	} {
		var buf []byte
		var err error
		m.perOp("wire.piggyback_append_ns."+c.suffix, c.ops, func() {
			for i := 0; i < c.ops; i++ {
				buf, err = wire.AppendPiggyback(buf[:0], c.pb)
				must(err)
			}
		})
		m.perOp("wire.piggyback_decode_ns."+c.suffix, c.ops, func() {
			for i := 0; i < c.ops; i++ {
				sink.a, _, err = wire.DecodePiggyback(buf)
				must(err)
			}
		})
	}
	pkt := &wire.Packet{ID: 42, From: 3, To: 7, Piggyback: tpPiggyback(10)}
	ops := m.n(500_000)
	m.perOp("wire.packet_roundtrip_ns.tp_n10", ops, func() {
		for i := 0; i < ops; i++ {
			b, err := pkt.Marshal()
			must(err)
			_, err = wire.Unmarshal(b)
			must(err)
			sink.b = b
		}
	})
	m.set("wire.packet_bytes.tp_n10", float64(len(sink.b)))

	const records = 1000
	lt := &wire.LogTransfer{Host: 5, FromMSS: 1, ToMSS: 2, Records: make([]wire.LogRecord, records)}
	for i := range lt.Records {
		lt.Records[i] = wire.LogRecord{Seq: uint64(i), MsgID: uint64(7 * i), From: mobile.HostID(i % 50), RecvCount: int64(i / 3), At: float64(i)}
	}
	frames := m.n(500)
	m.perOp("wire.logtransfer_roundtrip_ns_per_record", frames*records, func() {
		for i := 0; i < frames; i++ {
			b, err := wire.EncodeFrame(lt)
			must(err)
			sink.a, err = wire.DecodeFrame(b)
			must(err)
		}
	})
}

func (m *micro) mlog() {
	const hosts = 50
	ops := m.n(300_000)
	for _, c := range []struct {
		metric string
		mode   mlog.Mode
	}{
		{"mlog.append_ns.pessimistic", mlog.Pessimistic},
		{"mlog.append_ns.optimistic", mlog.Optimistic},
	} {
		lg, err := mlog.New(mlog.DefaultConfig(c.mode))
		if err != nil {
			m.out.fail("mlog.New: %v", err)
			return
		}
		m.perOp(c.metric, ops, func() {
			for i := 0; i < ops; i++ {
				h := mobile.HostID(i % hosts)
				lg.Append(h, mobile.HostID((i+1)%hosts), uint64(i), i/hosts/4, des.Time(i), mobile.MSSID(int(h)%25))
			}
		})
		if c.mode != mlog.Pessimistic {
			continue
		}
		// Every host now holds ops/hosts stable entries whose receive
		// counts rise by one every fourth entry.
		perHost := ops / hosts
		moves := m.n(100_000)
		var shipped int
		d := m.rec.timed("mlog.handoff_ns_per_entry", func() {
			for i := 0; i < moves; i++ {
				shipped += len(lg.Handoff(mobile.HostID(i%hosts), mobile.MSSID(i%2)))
			}
		})
		if shipped > 0 {
			m.set("mlog.handoff_ns_per_entry", d*1e9/float64(shipped))
		}
		replays := m.n(2000)
		var scanned int
		d = m.rec.timed("mlog.replayfrom_ns_per_entry", func() {
			for i := 0; i < replays; i++ {
				restored := (i % 4) * perHost / 16 // receive counts run up to perHost/4
				scanned += perHost - len(lg.ReplayFrom(mobile.HostID(i%hosts), restored))
			}
		})
		if scanned > 0 {
			m.set("mlog.replayfrom_ns_per_entry", d*1e9/float64(scanned))
		}
	}
}

func (m *micro) trace() {
	const hosts = 100
	ops := m.n(300_000)
	tr := trace.New(hosts)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.perOp("trace.record_pair_ns", ops, func() {
		for i := 0; i < ops; i++ {
			id := uint64(i + 1)
			tr.RecordSend(id, mobile.HostID(i%hosts), mobile.HostID((i+1)%hosts), i/hosts, des.Time(i))
			tr.RecordDeliver(id, i/hosts+1, des.Time(i)+0.03)
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.set("trace.bytes_per_message", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(ops))
	sink.i = tr.Len()
}

// recovery reads one recorded run: the replay-recovery workload at a
// fifth of its run length.
func (m *micro) recovery() {
	sp, err := generate(wReplay, m.seed, m.smoke)
	if err != nil {
		m.out.fail("recovery scenario: %v", err)
		return
	}
	if !m.smoke {
		sp.Sim.Horizon /= 5
	}
	cfg := sp.Sim.config()
	res, err := sim.Run(cfg)
	if err != nil {
		m.out.fail("recovery scenario: %v", err)
		return
	}
	n := cfg.Mobile.NumHosts
	unc := res.Protocol(sim.UNC) // the uncoordinated baseline: the longest domino chains
	events := unc.Trace.Len()
	if events == 0 {
		m.out.fail("recovery scenario recorded no message")
		return
	}
	seed := recovery.FailureCut(unc.Store, n, 0)
	reps := m.n(200)
	var cut recovery.Cut
	var steps int
	m.perOp("recovery.propagate_ns_per_trace_event", reps*events, func() {
		for i := 0; i < reps; i++ {
			cut, steps = recovery.Propagate(unc.Trace, seed)
		}
	})
	m.set("recovery.propagate_domino_steps", float64(steps))
	logged := sim.Logged(unc)
	m.perOp("recovery.propagate_replay_ns_per_trace_event", reps*events, func() {
		for i := 0; i < reps; i++ {
			recovery.PropagateReplay(unc.Trace, seed, logged)
		}
	})
	chains := func(h mobile.HostID) []*storage.Record { return unc.Store.Chain(h) }
	m.perOp("recovery.measure_ns", reps, func() {
		for i := 0; i < reps; i++ {
			sink.i = recovery.Measure(unc.Trace, cut, chains, cfg.Horizon, steps).UndoneMessages
		}
	})

	// The user-visible recovery time on this fixed scenario: every host,
	// every protocol, as the replay-recovery workload does at full length.
	var ms []float64
	for _, f := range sp.Sim.Failures {
		pr := &res.Protocols[f[0]]
		d := m.rec.timed("recover["+string(pr.Name)+"]", func() {
			_, err = sim.AnalyzeReplay(pr, n, mobile.HostID(f[1]), cfg.Horizon)
		})
		m.out.Attempted++
		if err != nil {
			m.out.fail("recover host %d under %s: %v", f[1], pr.Name, err)
			continue
		}
		ms = append(ms, d*1e3)
	}
	m.set("recover_ms_p50", median(ms))
	m.set("recover_ms_p90", tail(ms, 0.9))

	// Last, because it prunes the store the metrics above read.
	qbc := res.Protocol(sim.QBC)
	records := 0
	for h := 0; h < n; h++ {
		records += len(qbc.Store.Chain(mobile.HostID(h)))
	}
	m.perOp("recovery.collect_garbage_ns_per_record", max(records, 1), func() {
		sink.i, _ = recovery.CollectGarbage(qbc.Store, n)
	})
}

// paperPoint is the paper's default point at a fifth of its run length
// and P_switch = 0.8 — the configuration the repository's own overhead
// benches use.
func (m *micro) paperPoint() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Horizon = 20000
	if m.smoke {
		cfg.Horizon = 1000
	}
	cfg.Workload.PSwitch = 0.8
	cfg.Seed = m.seed
	return cfg
}

func (m *micro) simExtras() {
	cfg := m.paperPoint()
	res, err := sim.Run(cfg)
	if err != nil {
		m.out.fail("paper point: %v", err)
		return
	}
	exports := m.n(2000)
	m.perOp("sim.export_json_ns_per_protocol", exports*len(res.Protocols), func() {
		for i := 0; i < exports; i++ {
			must(res.ExportJSON(io.Discard))
		}
	})

	// What the sweep driver adds to the runs it drives: four points of
	// figure 1 times two seeds through SweepParallel(workers=1), against
	// the same eight runs called directly. Alternated, medians compared.
	f1 := sim.PaperFigures()[0]
	var points []sim.Config
	for _, ts := range f1.TSwitch[:4] {
		points = append(points, f1.Apply(cfg, ts))
	}
	seeds := sim.Seeds(m.seed, 2)
	var sweep, direct []float64
	for round := 0; round < 3; round++ {
		sweep = append(sweep, m.rec.timed("sim.SweepParallel", func() {
			_, err = sim.SweepParallel(points, seeds, 1)
			must(err)
		}))
		direct = append(direct, m.rec.timed("sim.Run x8", func() {
			for _, p := range points {
				for _, s := range seeds {
					p.Seed = s
					_, err = sim.Run(p)
					must(err)
				}
			}
		}))
	}
	m.set("sim.sweep_overhead_share", median(sweep)/median(direct)-1)
}

// pdes runs the parallel engines where they are meant to win: the E21
// environment at n=1e4 on the calendar queue.
func (m *micro) pdes() {
	pt := sim.ScalePoint{Hosts: 10_000, Horizon: 200, Protocols: []sim.ProtocolName{sim.BCS, sim.QBC}}
	if m.smoke {
		pt.Hosts, pt.Horizon = 1000, 20
	}
	rates := map[string]float64{}
	for _, e := range []struct {
		name  string
		mode  pdes.Mode
		lanes int
	}{
		{"sequential", pdes.ModeSequential, 0},
		{"conservative_l1", pdes.ModeConservative, 1},
		{"conservative_l2", pdes.ModeConservative, 2},
		{"timewarp_l1", pdes.ModeTimeWarp, 1},
		{"timewarp_l2", pdes.ModeTimeWarp, 2},
	} {
		cfg := pt.Config(m.seed, des.QueueCalendar)
		cfg.Engine, cfg.Lanes = e.mode, e.lanes
		var res *sim.Result
		var err error
		metric := "pdes." + e.name + ".events_per_s"
		d := m.rec.timed(metric, func() { res, err = sim.Run(cfg) })
		m.out.Attempted++
		if err != nil {
			m.out.fail("pdes %s: %v", e.name, err)
			continue
		}
		rates[e.name] = float64(res.EventsFired) / d
		m.set(metric, rates[e.name])
		if e.name == "conservative_l2" && res.PDES != nil {
			m.set("pdes.conservative_l2.windows", float64(res.PDES.Windows))
		}
	}
	if rates["sequential"] > 0 {
		m.set("pdes.l2_speedup", rates["conservative_l2"]/rates["sequential"])
	}
}

func (m *micro) obsCheck() {
	base := m.paperPoint()
	variants := []struct {
		metric string
		mut    func(*sim.Config) *obs.Timeline
	}{
		{"off", func(*sim.Config) *obs.Timeline { return nil }},
		{"obs.metrics_timeline_overhead_ratio", func(c *sim.Config) *obs.Timeline {
			c.Metrics, c.Timeline = obs.NewRegistry(), obs.NewTimeline()
			return c.Timeline
		}},
		{"obs.probes_overhead_ratio", func(c *sim.Config) *obs.Timeline { c.Probes = true; return nil }},
		{"check.overhead_ratio", func(c *sim.Config) *obs.Timeline { c.Checks = true; return nil }},
	}
	times := make([][]float64, len(variants))
	var tl *obs.Timeline
	for round := 0; round < 5; round++ {
		for i, v := range variants {
			cfg := base
			t := v.mut(&cfg)
			var err error
			times[i] = append(times[i], m.rec.timed("sim.Run["+v.metric+"]", func() { _, err = sim.Run(cfg) }))
			if err != nil {
				m.out.fail("%s: %v", v.metric, err)
				return
			}
			if t != nil {
				tl = t
			}
		}
	}
	off := median(times[0])
	for i, v := range variants[1:] {
		m.set(v.metric, median(times[i+1])/off)
	}
	exports := m.n(5)
	m.perOp("obs.timeline_export_ns_per_event", exports*max(tl.Len(), 1), func() {
		for i := 0; i < exports; i++ {
			must(tl.Export(io.Discard))
		}
	})

	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_counter")
	ops := m.n(5_000_000)
	m.perOp("obs.counter_inc_ns", ops, func() {
		for i := 0; i < ops; i++ {
			ctr.Inc()
		}
	})
	hist := reg.Histogram("bench_histogram", obs.ExpBuckets(1, 2, 32))
	m.perOp("obs.histogram_observe_ns", ops, func() {
		for i := 0; i < ops; i++ {
			hist.Observe(float64(i & 0xffff))
		}
	})
}

// live runs a few clusters of the live-cluster workload's own size, half
// of them recording, and replays one recording through the sim.
func (m *micro) live() {
	sp, err := generate(wLive, m.seed, m.smoke) // for the workload's own OpsPerHost
	if err != nil {
		m.out.fail("live scenario: %v", err)
		return
	}
	mk, err := live.Factory("QBC")
	if err != nil {
		m.out.fail("live.Factory: %v", err)
		return
	}
	const clusters = 3
	var newMs, runPlain, runRecord, recoverMs, verifyMs []float64
	var sent, delivered, dups, frameBytes, stateBytes, ckpts int64
	var recorded *live.Cluster
	for i := 0; i < 2*clusters; i++ {
		cfg := live.DefaultConfig()
		cfg.OpsPerHost = sp.Live.OpsPerHost
		cfg.LogMode = mlog.Pessimistic
		cfg.Seed = m.seed + 1000 + uint64(i/2) // each seed once plain, once recording
		cfg.Record = i%2 == 1
		var c *live.Cluster
		d := m.rec.timed("live.NewCluster", func() { c, err = live.NewCluster(cfg, mk) })
		m.out.Attempted++
		if err != nil {
			m.out.fail("live.NewCluster: %v", err)
			return
		}
		run := m.rec.timed("live.Run", c.Run)
		if cfg.Record {
			runRecord = append(runRecord, run)
			recorded = c
			continue
		}
		newMs = append(newMs, d*1e3)
		runPlain = append(runPlain, run)
		recoverMs = append(recoverMs, 1e3*m.rec.timed("live.Recover", func() { _, err = c.Recover(mobile.HostID(i % cfg.Hosts)) }))
		if err != nil {
			m.out.fail("live.Recover: %v", err)
			return
		}
		verifyMs = append(verifyMs, 1e3*m.rec.timed("live.VerifyImages", func() { _, err = c.VerifyImages() }))
		if err != nil {
			m.out.fail("live.VerifyImages: %v", err)
			return
		}
		n := c.Counters()
		sent += n.Sent
		delivered += n.Delivered
		dups += n.Duplicates
		frameBytes += n.FrameBytes
		stateBytes += n.StateBytes
		for h := 0; h < cfg.Hosts; h++ {
			ckpts += int64(len(c.Store().Chain(mobile.HostID(h))))
		}
	}
	hostOps := float64(live.DefaultConfig().Hosts * sp.Live.OpsPerHost)
	m.set("live.newcluster_ms", median(newMs))
	m.set("live.run_ns_per_op", median(runPlain)*1e9/hostOps)
	m.set("live.recover_ms", median(recoverMs))
	m.set("live.verify_images_ms", median(verifyMs))
	m.set("live.record_overhead_ratio", median(runRecord)/median(runPlain))
	m.set("live_msgs_per_s", float64(delivered)/(median(runPlain)*clusters))
	if sent > 0 {
		m.set("live.frame_bytes_per_msg", float64(frameBytes)/float64(sent))
	}
	if delivered+dups > 0 {
		m.set("live.dup_share", float64(dups)/float64(delivered+dups))
	}
	if ckpts > 0 {
		m.set("live.state_bytes_per_ckpt", float64(stateBytes)/float64(ckpts))
	}

	sched := recorded.Schedule()
	var res *sim.Result
	d := m.rec.timed("replaycmp.replay_events_per_s", func() { res, err = sim.Run(sim.Config{Schedule: sched}) })
	m.out.Attempted++
	if err != nil {
		m.out.fail("schedule replay: %v", err)
		return
	}
	m.set("replaycmp.replay_events_per_s", float64(len(sched.Events))/d)
	var div *replaycmp.Divergence
	m.set("replaycmp.compare_ms", 1e3*m.rec.timed("replaycmp.compare_ms", func() {
		div = replaycmp.Compare(recorded.Decisions(), res.Decisions, sched)
	}))
	if div != nil {
		m.out.fail("replayed decisions diverge from the live run: %v", div)
	}
}

func (m *micro) statestore() {
	const pages, host = 64, 0
	hs := statestore.NewHostState(pages)
	st := statestore.NewGroup(2).Station(0)
	if _, err := st.Apply(host, hs.Checkpoint(0, true)); err != nil {
		m.out.fail("statestore: %v", err)
		return
	}
	// The station keeps every reconstructed image, so the loop stays short.
	ops := m.n(2000)
	word := make([]byte, 64)
	deltas := make([]*statestore.Delta, ops)
	m.perOp("statestore.checkpoint_incremental_ns", ops, func() {
		for i := range deltas {
			word[0] = byte(i)
			must(hs.Write((i*97)%(pages*statestore.PageSize-len(word)), word))
			deltas[i] = hs.Checkpoint(i+1, false)
		}
	})
	m.perOp("statestore.apply_ns", ops, func() {
		for _, d := range deltas {
			_, err := st.Apply(host, d)
			must(err)
		}
	})
}
