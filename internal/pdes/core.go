package pdes

import (
	"fmt"
	"math"
	"sync"

	"mobickpt/internal/des"
	"mobickpt/internal/des/equeue"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
)

// CoreConfig configures the world-model lane driver.
type CoreConfig struct {
	// Lanes is the number of logical processes P. Owners (hosts) map to
	// lanes by owner % P.
	Lanes int
	// Horizon is the inclusive virtual-time bound: events at exactly
	// Horizon still fire, later ones stay queued.
	Horizon des.Time
	// Lookahead is the minimum virtual-time delay of any cross-lane
	// message (the wireless uplink latency for this world). Must be
	// positive: it is the width of every window.
	Lookahead des.Time
	// GlobalNext/GlobalStep interleave a serial global timeline
	// (markers, ticks, GC, joins) with the lanes: GlobalNext peeks the
	// earliest pending global event, GlobalStep executes exactly one.
	// The global timeline runs world-stopped — every lane is parked at
	// or beyond the global event's time — so global handlers may touch
	// any state. Both nil when there is no global timeline.
	GlobalNext func() (des.Time, bool)
	GlobalStep func()
	// Parked, when non-nil, runs on the coordinator after every window
	// and every serialized write step, with every lane parked: where a
	// world does, on one goroutine, what its lane handlers only recorded.
	// So a global step, and the end of Run, always follow a Parked call.
	Parked func()
	// Probe, when non-nil, receives per-lane internals counters; NewCore
	// sizes its slices to Lanes and attaches the queue probes. Read it
	// only after Run has returned.
	Probe *CoreProbe
}

// CoreProbe is the lane-indexed internals instrumentation of one core
// run: per-lane execution shape (events, windows with work, mailbox
// traffic) and per-lane calendar structure. Each slice element is
// written only by its lane's goroutine or by the coordinator while the
// lanes are parked; readers wait for Run to return.
type CoreProbe struct {
	Lanes  []probe.LaneProbe  `json:"lanes"`
	Queues []probe.QueueProbe `json:"queues"`
}

// laneEvent is one lane-queued occurrence. The equeue entry's Seq field
// carries the deterministic ordering key (des.KeyFor: bit 63, emitter,
// per-emitter ordinal) instead of a global insertion counter, so the
// (At, Seq) order every lane executes is a pure function of the event
// population — independent of which goroutine inserted what first.
type laneEvent struct {
	ent   equeue.Entry
	fn    des.ArgHandler
	arg   any
	write bool
	free  *laneEvent
}

// lane is one logical process: an event queue, a mailbox for cross-lane
// arrivals, and a min-heap of the times of its pending shared-state
// writes. The guardlint contract below encodes the ownership story:
// everything except the mailbox belongs to the lane's own goroutine (or
// to the coordinator while the lane is parked at the barrier — a
// hand-off no mutex can witness, hence //guard:none with the reason);
// only box, the one structure written by *other* goroutines, takes the
// mutex.
type lane struct {
	//guard:none immutable after NewCore
	id int

	//guard:none owned by the lane goroutine; the coordinator touches it only while the lane is parked
	q equeue.Queue

	//guard:none per-goroutine event pool, same ownership as q
	free *laneEvent

	// lvt is the time of the executing (or last executed) event.
	//
	//guard:none written only by the goroutine executing this lane's events
	lvt des.Time

	// ord holds per-owned-emitter ordinals (emitter e at index e/P).
	//
	//guard:none grown only single-threaded (before Run or world-stopped); ordinal bumps are owner-lane
	ord []uint32

	// wh is the min-heap of pending write times; the coordinator reads
	// its top to bound each window.
	//
	//guard:none owner-lane heap, read by the coordinator only while the lane is parked
	wh []float64

	// cmd carries the window bound broadcasts.
	//
	//guard:none channel operations synchronize themselves
	cmd chan float64

	// fired counts events executed on this lane, steps run in line
	// included.
	//
	//guard:none owner-lane counter, read by the coordinator only after the lanes joined
	fired uint64

	// probe and qprobe (the lane queue's probe, which also counts the
	// steps run in line) are nil unless CoreConfig.Probe was set.
	//
	//guard:none set at construction; the pointed-to shard is owner-lane
	probe *probe.LaneProbe
	//guard:none set at construction; the pointed-to shard is owner-lane
	qprobe *probe.QueueProbe

	mu sync.Mutex

	//guard:mu
	box []*laneEvent
}

// append delivers a cross-lane (or global-phase) event into the mailbox.
func (l *lane) append(ev *laneEvent) {
	l.mu.Lock()
	l.box = append(l.box, ev)
	l.mu.Unlock()
}

// drain moves mailbox arrivals into the queue. The coordinator calls it
// between windows, with every lane parked.
func (l *lane) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.box) == 0 {
		return
	}
	if p := l.probe; p != nil {
		p.MailboxMsgs += uint64(len(l.box))
		if len(l.box) > p.MailboxPeak {
			p.MailboxPeak = len(l.box)
		}
	}
	for i, ev := range l.box {
		l.q.Push(&ev.ent)
		if ev.write {
			l.whPush(ev.ent.At)
		}
		l.box[i] = nil
	}
	l.box = l.box[:0]
}

// whPush records the time of a pending shared-state write.
func (l *lane) whPush(t float64) {
	l.wh = append(l.wh, t)
	for i := len(l.wh) - 1; i > 0; {
		p := (i - 1) / 2
		if l.wh[p] <= l.wh[i] {
			break
		}
		l.wh[p], l.wh[i] = l.wh[i], l.wh[p]
		i = p
	}
}

// whPop removes the earliest pending write time: that of the write that
// just executed, since lanes run in queue order.
func (l *lane) whPop() {
	n := len(l.wh) - 1
	l.wh[0] = l.wh[n]
	l.wh = l.wh[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && l.wh[r] < l.wh[c] {
			c = r
		}
		if l.wh[i] <= l.wh[c] {
			break
		}
		l.wh[i], l.wh[c] = l.wh[c], l.wh[i]
		i = c
	}
}

// take pops a pooled event from the caller's free list.
func (l *lane) take() *laneEvent {
	ev := l.free
	if ev == nil {
		ev = &laneEvent{}
		ev.ent.E = ev
	} else {
		l.free = ev.free
		ev.free = nil
	}
	return ev
}

// exec runs one popped event on this lane's timeline and recycles it
// into the executing goroutine's lane pool.
func (l *lane) exec(ev *laneEvent) {
	t := des.Time(ev.ent.At)
	l.lvt = t
	ev.fn(nil, t, ev.arg)
	l.fired++
	if l.probe != nil {
		l.probe.Events++
	}
	if ev.write {
		l.whPop()
	}
	ev.fn = nil
	ev.arg = nil
	ev.free = l.free
	l.free = ev
}

// Core drives the closure-based world model across P lanes. Handlers
// are irreversible, so execution is risk-free: an event runs only once
// the window bound proves it safe, and every processed event is final.
type Core struct {
	cfg CoreConfig

	// lanes is sharded by lane id: element i's mutable state belongs to
	// lane i's goroutine (or the world-stopped coordinator).
	//
	//lane:shard
	lanes []*lane

	p    int
	look float64 // cross-lane lookahead
	hb   float64 // horizon bound: nextafter(horizon), exclusive

	// inGlobal is set by the coordinator around global-phase execution.
	//
	//lane:stopped only the coordinator flips it, with every lane parked
	inGlobal bool

	done  chan int
	wg    sync.WaitGroup
	stats Stats
}

// NewCore validates the configuration and builds the lanes.
func NewCore(cfg CoreConfig) (*Core, error) {
	if cfg.Lanes < 1 {
		return nil, fmt.Errorf("pdes: need at least one lane, got %d", cfg.Lanes)
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("pdes: lookahead must be positive, got %v", cfg.Lookahead)
	}
	if (cfg.GlobalNext == nil) != (cfg.GlobalStep == nil) {
		return nil, fmt.Errorf("pdes: GlobalNext and GlobalStep must be set together")
	}
	c := &Core{
		cfg:  cfg,
		p:    cfg.Lanes,
		look: float64(cfg.Lookahead),
		hb:   math.Nextafter(float64(cfg.Horizon), math.Inf(1)),
		// Until Run starts, all scheduling happens on the coordinator
		// (the engine's init phase), which must use the mailbox path.
		inGlobal: true,
		done:     make(chan int, cfg.Lanes),
	}
	c.stats.Lanes = cfg.Lanes
	if cfg.Probe != nil {
		cfg.Probe.Lanes = make([]probe.LaneProbe, cfg.Lanes)
		cfg.Probe.Queues = make([]probe.QueueProbe, cfg.Lanes)
	}
	for i := 0; i < cfg.Lanes; i++ {
		q := equeue.NewCalendar()
		l := &lane{id: i, q: q, cmd: make(chan float64)}
		if cfg.Probe != nil {
			l.probe = &cfg.Probe.Lanes[i]
			l.qprobe = &cfg.Probe.Queues[i]
			q.SetProbe(l.qprobe)
		}
		c.lanes = append(c.lanes, l)
	}
	return c, nil
}

// Stats returns the run accounting.
func (c *Core) Stats() *Stats { return &c.stats }

// Now returns the virtual time on owner's timeline: the time of the
// event its lane is executing. Callable only from that lane's executing
// goroutine (or from the world-stopped coordinator).
func (c *Core) Now(owner int) des.Time { return c.lanes[owner%c.p].lvt }

// Schedule inserts an event on owner's lane. emitter is the identity in
// whose deterministic execution order the event was created (the acting
// host); together with a per-emitter ordinal it forms the ordering key,
// so ties and the whole lane order are independent of real-time arrival
// order. write marks events that mutate cross-lane-visible shared
// state (mobility hand-offs, disconnections, reconnections): they are
// tracked in the lane's write heap, bound every window, and execute
// only as serialized steps.
//
// Self-schedules from an executing lane push straight into the lane's
// own queue; everything else — cross-lane sends and all global-phase
// scheduling — goes through the owner's mailbox.
func (c *Core) Schedule(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool) {
	el := c.lanes[emitter%c.p]
	idx := emitter / c.p
	for idx >= len(el.ord) {
		// Growth happens only while single-threaded: either before Run,
		// or during the world-stopped global phase (dynamic joins).
		el.ord = append(el.ord, 0)
	}
	key := des.KeyFor(emitter, el.ord[idx])
	el.ord[idx]++

	ev := el.take()
	ev.ent.At = float64(at)
	ev.ent.Seq = key
	ev.fn = fn
	ev.arg = arg
	ev.write = write

	ol := c.lanes[owner%c.p]
	if el == ol && !c.inGlobal {
		// The caller is ol's executing goroutine.
		ol.q.Push(&ev.ent)
		if write {
			ol.whPush(ev.ent.At)
		}
		return
	}
	if write && !c.inGlobal {
		// A write must bound the window it lands in, and an arrival in
		// another lane's mailbox is seen only at the next barrier. The
		// world has no cross-lane writes (hand-offs run on the moving
		// host's own lane); anything new that needs one must go through
		// the global timeline.
		panic("pdes: cross-lane shared-state write from a lane handler")
	}
	ol.append(ev)
}

// Inline is des.Sched.Inline for owner's lane: a private step of owner's
// at time at is allowed only while Run's lanes execute (never before Run,
// in the global phase or after) and strictly before the horizon, and an
// allowed step counts on owner's lane exactly as an executed event does.
// Callable only from that lane's executing goroutine, like Now.
func (c *Core) Inline(owner int, at des.Time) bool {
	if c.inGlobal || !(at < c.cfg.Horizon) {
		return false
	}
	l := c.lanes[owner%c.p]
	l.fired++
	if l.qprobe != nil {
		l.qprobe.Inline++
	}
	return true
}

// Fired returns the total lane events executed, steps run in line
// included.
func (c *Core) Fired() uint64 {
	var fired uint64
	for _, l := range c.lanes {
		fired += l.fired
	}
	return fired
}

// globalNext loads the earliest global event time (+Inf when none).
func (c *Core) globalNext() float64 {
	if c.cfg.GlobalNext == nil {
		return math.Inf(1)
	}
	if g, ok := c.cfg.GlobalNext(); ok {
		return float64(g)
	}
	return math.Inf(1)
}

// parked runs CoreConfig.Parked, if set, with every lane parked.
//
//lane:stopped runs on the coordinator between windows
func (c *Core) parked() {
	if c.cfg.Parked != nil {
		c.cfg.Parked()
	}
}

// globalStep executes one world-stopped global event.
//
//lane:stopped runs on the coordinator with every lane parked at or beyond g
func (c *Core) globalStep() {
	c.inGlobal = true
	c.cfg.GlobalStep()
	c.inGlobal = false
	c.stats.GlobalEvents.Add(1)
}

// Run executes the world to the horizon and returns once every lane has
// stopped. Scheduling before and after it is the coordinator's, as in the
// global phase.
//
// The coordinator alternates three deterministic moves until the
// horizon: run the earliest global event when it is due first; run a
// shared-state write serialized on the coordinator when the write is
// the earliest event; otherwise open the widest safe window
// W = min(m+lookahead, write horizon, global, horizon) and let every
// lane execute its events below W in parallel. No cross-lane message
// can land inside an open window (arrivals are at least m+lookahead),
// so lanes never need to look at their mailboxes mid-window. A panic on
// the coordinator — in a global step, a write step or Parked, all run
// with every lane parked — stops the lanes before it leaves Run.
func (c *Core) Run() {
	c.inGlobal = false
	for _, l := range c.lanes {
		c.wg.Add(1)
		go c.laneWindows(l)
	}
	defer func() {
		for _, l := range c.lanes {
			close(l.cmd)
		}
		c.wg.Wait()
		c.inGlobal = true
		c.stats.Processed.Store(c.Fired())
	}()
	inf := math.Inf(1)
	for {
		var best *equeue.Entry
		var bl *lane
		wh := inf
		for _, l := range c.lanes {
			l.drain()
			if e := l.q.Peek(); e != nil && (best == nil || entryBefore(e, best)) {
				best, bl = e, l
			}
			if len(l.wh) > 0 && l.wh[0] < wh {
				wh = l.wh[0]
			}
		}
		m := inf
		if best != nil {
			m = best.At
		}
		g := c.globalNext()
		if g < c.hb && g <= m {
			// Global first on ties: the sequential engine schedules
			// markers/ticks/joins before the lane events they spawn.
			c.globalStep()
			continue
		}
		if m >= c.hb {
			break
		}
		w := math.Min(math.Min(m+c.look, wh), math.Min(g, c.hb))
		if w <= m {
			// The earliest event is a shared-state write (w == wh == m):
			// run it alone on the coordinator while every lane is parked.
			bl.exec(bl.q.Pop().E.(*laneEvent))
			c.stats.SerialSteps.Add(1)
			c.parked()
			continue
		}
		for _, l := range c.lanes {
			l.cmd <- w
		}
		for range c.lanes {
			<-c.done
		}
		c.stats.Windows.Add(1)
		c.parked()
	}
}

// laneWindows is the lane worker: execute everything below each
// broadcast window bound, then report to the barrier.
//
//lane:handler
func (c *Core) laneWindows(l *lane) {
	defer c.wg.Done()
	for w := range l.cmd {
		ran := false
		for {
			e := l.q.Peek()
			if e == nil || e.At >= w {
				break
			}
			l.q.Pop()
			l.exec(e.E.(*laneEvent))
			ran = true
		}
		if ran && l.probe != nil {
			// Window occupancy: windows in which this lane had any work.
			l.probe.Windows++
		}
		c.done <- l.id
	}
}

// entryBefore is the engine's (At, Seq) total order.
func entryBefore(e, f *equeue.Entry) bool {
	if e.At != f.At {
		return e.At < f.At
	}
	return e.Seq < f.Seq
}

// Instrument registers the pdes instruments on reg: the lane count, the
// processed-event total and the driver's shape. They sample the live
// atomics.
func (s *Stats) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, h := range [][2]string{
		{"pdes_lanes", "Logical processes (lanes) the parallel engine runs."},
		{"pdes_events_processed_total", "Lane events executed."},
		{"pdes_windows_total", "Synchronization windows executed by the conservative driver."},
		{"pdes_serial_steps_total", "Shared-state writes run alone on the coordinator between windows."},
		{"pdes_global_events_total", "Events executed in the world-stopped global phase."},
	} {
		reg.Help(h[0], h[1])
	}
	reg.GaugeFunc("pdes_lanes", func() int64 { return int64(s.Lanes) })
	reg.CounterFunc("pdes_events_processed_total", func() int64 { return int64(s.Processed.Load()) })
	reg.CounterFunc("pdes_windows_total", func() int64 { return int64(s.Windows.Load()) })
	reg.CounterFunc("pdes_serial_steps_total", func() int64 { return int64(s.SerialSteps.Load()) })
	reg.CounterFunc("pdes_global_events_total", func() int64 { return int64(s.GlobalEvents.Load()) })
}
