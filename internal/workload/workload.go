// Package workload implements the stochastic application and mobility
// model of the paper's §5.1, driving the mobile.Network mechanics:
//
//   - each connected MH performs an operation every Exp(1.0) time units;
//     with probability P_s the operation is a send to a uniformly chosen
//     other host, otherwise it is a receive (which degenerates to an
//     internal event when no message is waiting);
//   - upon entering a cell, with probability P_switch the host will
//     hand off to another cell after Exp(T_switch) time units; with
//     probability 1-P_switch it will disconnect after Exp(T_switch/3)
//     and stay disconnected for Exp(1000) time units;
//   - a fraction H of hosts is "fast": their permanence time is
//     T_switch/10 (the paper's heterogeneity degree).
//
// The package is pure policy: the actual send/receive mechanics are
// injected as callbacks so the experiment layer can interpose protocol
// processing, and the hand-off/disconnection mechanics go straight to
// the network (whose hooks notify the protocols).
package workload

import (
	"fmt"
	"math"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/rng"
)

// Topology selects how a hand-off chooses the next cell.
type Topology int

const (
	// Uniform: any other cell with equal probability (the paper's model;
	// cells are logical, so "adjacency" is not specified).
	Uniform Topology = iota
	// Ring: only the two neighboring cells (a linear corridor of cells,
	// the classic cellular-coverage abstraction). Checkpoint placement
	// becomes more local, which raises the chance that the previous
	// checkpoint is already on a reachable station.
	Ring
)

// Config holds the workload parameters, named as in the paper.
type Config struct {
	// PComm is the probability that an operation is a communication
	// (send or receive) rather than a purely internal event. The paper's
	// text specifies the internal-event rate (Exp(1.0)) and the
	// send/receive split (P_s) but the surviving text does not give the
	// communication frequency; PComm makes it explicit. The default is
	// calibrated so the headline gains match §5.2 (see DESIGN.md).
	PComm          float64
	PSend          float64 // P_s: probability a communication is a send
	OperationMean  float64 // mean inter-operation time (1.0 in the paper)
	TSwitch        float64 // mean cell-permanence time of slow hosts
	PSwitch        float64 // probability of hand-off (vs disconnection)
	DisconnectMean float64 // mean disconnection duration (1000)
	Heterogeneity  float64 // H: fraction of fast hosts in [0,1]
	FastFactor     float64 // fast hosts use TSwitch/FastFactor (10)

	// CellTopology selects the hand-off destination model.
	CellTopology Topology
}

// DefaultConfig returns the paper's baseline parameters (Figure 1's
// homogeneous, never-disconnecting environment at T_switch = 1000).
func DefaultConfig() Config {
	return Config{
		PComm:          0.05,
		PSend:          0.4,
		OperationMean:  1.0,
		TSwitch:        1000,
		PSwitch:        1.0,
		DisconnectMean: 1000,
		Heterogeneity:  0,
		FastFactor:     10,
	}
}

// Validate reports a descriptive error for out-of-range parameters.
func (c Config) Validate() error {
	// A NaN passes every range test below (each comparison with it is
	// false) and an infinite mean passes "> 0"; either would run, and hang
	// or print a table that means nothing.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PComm", c.PComm}, {"PSend", c.PSend}, {"OperationMean", c.OperationMean},
		{"TSwitch", c.TSwitch}, {"PSwitch", c.PSwitch}, {"DisconnectMean", c.DisconnectMean},
		{"Heterogeneity", c.Heterogeneity}, {"FastFactor", c.FastFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s = %v, need a finite number", f.name, f.v)
		}
	}
	switch {
	case c.PComm < 0 || c.PComm > 1:
		return fmt.Errorf("workload: PComm = %v out of [0,1]", c.PComm)
	case c.PSend < 0 || c.PSend > 1:
		return fmt.Errorf("workload: PSend = %v out of [0,1]", c.PSend)
	case c.OperationMean <= 0:
		return fmt.Errorf("workload: OperationMean = %v, need > 0", c.OperationMean)
	case c.TSwitch <= 0:
		return fmt.Errorf("workload: TSwitch = %v, need > 0", c.TSwitch)
	case c.PSwitch < 0 || c.PSwitch > 1:
		return fmt.Errorf("workload: PSwitch = %v out of [0,1]", c.PSwitch)
	case c.DisconnectMean <= 0:
		return fmt.Errorf("workload: DisconnectMean = %v, need > 0", c.DisconnectMean)
	case c.Heterogeneity < 0 || c.Heterogeneity > 1:
		return fmt.Errorf("workload: Heterogeneity = %v out of [0,1]", c.Heterogeneity)
	case c.FastFactor < 1:
		return fmt.Errorf("workload: FastFactor = %v, need >= 1", c.FastFactor)
	case c.CellTopology != Uniform && c.CellTopology != Ring:
		return fmt.Errorf("workload: unknown topology %d", c.CellTopology)
	}
	return nil
}

// PermanenceMean returns the mean cell-permanence time of host h under
// heterogeneity: the first round(H*n) hosts are fast.
func (c Config) PermanenceMean(h mobile.HostID, n int) float64 {
	fast := int(c.Heterogeneity*float64(n) + 0.5)
	if int(h) < fast {
		return c.TSwitch / c.FastFactor
	}
	return c.TSwitch
}

// Counters tracks the operations the workload performed.
type Counters struct {
	Sends         int64 // send operations executed
	Receives      int64 // receive operations that delivered a message
	EmptyReceives int64 // receive operations that found an empty queue
	Internal      int64 // purely internal events
	Handoffs      int64 // completed cell switches
	Disconnects   int64 // completed disconnections
	Reconnects    int64 // completed reconnections
}

// Callbacks let the experiment layer interpose on the application path.
type Callbacks struct {
	// Send performs the application send from -> to (the experiment layer
	// runs the protocols' OnSend and calls Network.Send). Required.
	Send func(from, to mobile.HostID)
	// Receive performs one receive operation for h and reports whether a
	// message was delivered. Required.
	Receive func(h mobile.HostID) bool
	// ExtraDelay, if non-nil, is consulted when scheduling a host's next
	// operation and its result is added to the exponential inter-
	// operation time. The experiment layer uses it to model
	// non-negligible checkpointing time (§5.1 discusses that case). A
	// checkpoint taken anywhere may change what it returns, so with it set
	// every operation is an event: none runs in line.
	ExtraDelay func(h mobile.HostID) des.Time
}

// laneCounters is one lane's private Counters shard, padded against
// false sharing between adjacent lanes.
type laneCounters struct {
	Counters
	_ [64]byte
}

// Driver schedules the workload processes on a scheduling surface: the
// sequential simulator via des.Solo, or a parallel lane kernel. Every
// workload event is a self-schedule on the acting host's own timeline;
// the mobility events carry the labels ("handoff", "disconnect",
// "reconnect") the parallel engine uses to recognize shared-state writes
// that need a fence.
//
// An internal operation is not an event. It draws from its host's own
// operation stream and bumps one counter, so no other event can observe
// when it runs: once an operation fires, the driver runs the host's
// following internal operations in line (des.Sched.Inline counts each as
// a fired "op") and queues only the first that communicates, falls at or
// after the host's pending mobility event (the only thing that can make
// it pause), or is not strictly before the running horizon. The draws
// are the ones, in the order, that one event per operation makes.
type Driver struct {
	sched des.Sched
	lanes int
	net   *mobile.Network
	cfg   Config
	cb    Callbacks

	// hosts holds every host's hot record, one exact-size block per
	// growHosts: block 0 the hosts present at construction, one more per
	// join. A block is never regrown, so a *hostRec stays valid for the
	// driver's lifetime — it is the argument every workload event carries.
	hosts [][]hostRec

	counters []laneCounters // sharded by executing lane, merged in Counters()

	// Pooled-event trampolines: one long-lived handler per process kind
	// instead of one closure per scheduled event. Operations dominate the
	// event count, so this removes the largest per-event allocation. The
	// argument is the host's *hostRec: pointer-shaped, so it rides in the
	// event's interface word without a boxed copy to allocate or to load.
	opFn         des.ArgHandler
	handoffFn    des.ArgHandler
	disconnectFn des.ArgHandler
	reconnectFn  des.ArgHandler
}

// hostRec is everything the driver reads or writes for one host on the
// hot path, 32 bytes: an internal operation run in line touches this
// record and its lane's counters, and nothing else.
type hostRec struct {
	op  rng.Source // operation stream: rng.NewStream(seed, 2·id)
	mob rng.Source // mobility stream: rng.NewStream(seed, 2·id+1)
	// mobAt is the time of the host's pending mobility event (hand-off,
	// disconnection or reconnection): until then away cannot change.
	mobAt des.Time
	id    int32
	// drawn is the queued operation's communication draw when it was
	// made before queueing (opInternal, opComm), or opUndrawn.
	drawn opDraw
	// paused: the operation loop stopped at a disconnection and restarts
	// at the reconnection.
	paused bool
	// away mirrors !net.Host(id).Connected(), sparing operate a load of
	// the network's host record. It is read from the network when the
	// record is made and cannot drift afterwards: disconnect and reconnect
	// below are the only callers of Network.Disconnect and
	// Network.Reconnect once a driver runs.
	away bool
}

// opDraw records whether a queued operation's Bernoulli(PComm) draw was
// already made, and how it came out.
type opDraw uint8

const (
	opUndrawn opDraw = iota
	opInternal
	opComm
)

// NewDriver creates a driver. The seed determines the whole trace; two
// drivers with equal seeds and configs generate identical executions,
// which is what makes single-trace protocol comparison exact.
func NewDriver(sim *des.Simulator, net *mobile.Network, cfg Config, seed uint64, cb Callbacks) (*Driver, error) {
	return NewDriverSched(des.Solo(sim), 1, net, cfg, seed, cb)
}

// NewDriverSched creates a driver bound to an arbitrary scheduling
// surface, with its counters sharded across lanes executing goroutines
// (hosts map to shards by id % lanes, matching the parallel kernel).
func NewDriverSched(sched des.Sched, lanes int, net *mobile.Network, cfg Config, seed uint64, cb Callbacks) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cb.Send == nil || cb.Receive == nil {
		return nil, fmt.Errorf("workload: Send and Receive callbacks are required")
	}
	if lanes < 1 {
		return nil, fmt.Errorf("workload: lanes = %d, need >= 1", lanes)
	}
	d := &Driver{
		sched:    sched,
		lanes:    lanes,
		net:      net,
		cfg:      cfg,
		cb:       cb,
		counters: make([]laneCounters, lanes),
	}
	d.opFn = func(sim *des.Simulator, now des.Time, arg any) { d.operate(arg.(*hostRec)) }
	d.handoffFn = func(sim *des.Simulator, now des.Time, arg any) { d.handoff(arg.(*hostRec)) }
	d.disconnectFn = func(sim *des.Simulator, now des.Time, arg any) { d.disconnect(arg.(*hostRec)) }
	d.reconnectFn = func(sim *des.Simulator, now des.Time, arg any) { d.reconnect(arg.(*hostRec)) }
	d.growHosts(net.NumHosts(), seed)
	return d, nil
}

// numHosts returns the number of hosts the driver has records for.
func (d *Driver) numHosts() int {
	n := 0
	for _, b := range d.hosts {
		n += len(b)
	}
	return n
}

// growHosts extends the records to n hosts with one exact-size block,
// giving every new id its own two streams of seed.
func (d *Driver) growHosts(n int, seed uint64) {
	old := d.numHosts()
	if n <= old {
		return
	}
	block := make([]hostRec, n-old)
	for i := range block {
		id := old + i
		block[i] = hostRec{
			op:   *rng.NewStream(seed, uint64(2*id)),
			mob:  *rng.NewStream(seed, uint64(2*id+1)),
			id:   int32(id),
			away: !d.net.Host(mobile.HostID(id)).Connected(),
		}
	}
	d.hosts = append(d.hosts, block)
}

// rec returns host h's record. Set-up and joins only: events carry the
// record itself.
func (d *Driver) rec(h mobile.HostID) *hostRec {
	i := int(h)
	for _, b := range d.hosts {
		if i < len(b) {
			return &b[i]
		}
		i -= len(b)
	}
	panic(fmt.Sprintf("workload: host %d has no record", h))
}

// shard returns the counters of the lane executing r's events.
func (d *Driver) shard(r *hostRec) *Counters {
	return &d.counters[int(r.id)%d.lanes].Counters
}

// Counters returns a snapshot of the operation counters, merged across
// lane shards. Call it only while the lanes are quiescent.
func (d *Driver) Counters() Counters {
	c := d.counters[0].Counters
	for i := 1; i < len(d.counters); i++ {
		s := &d.counters[i].Counters
		c.Sends += s.Sends
		c.Receives += s.Receives
		c.EmptyReceives += s.EmptyReceives
		c.Internal += s.Internal
		c.Handoffs += s.Handoffs
		c.Disconnects += s.Disconnects
		c.Reconnects += s.Reconnects
	}
	return c
}

// AddHost starts the operation and mobility processes of a host that
// joined after Start (ids are dense, assigned by mobile.Network.AddHost).
// The new host gets its own deterministic streams, so a configuration
// with joins is still fully reproducible from the seed.
func (d *Driver) AddHost(h mobile.HostID, seed uint64) {
	d.growHosts(int(h)+1, seed)
	r := d.rec(h)
	d.scheduleOperation(r)
	d.enterCell(r)
}

// Start schedules the first operation and the first mobility decision of
// every host. Call once, before running the simulator.
func (d *Driver) Start() {
	for _, block := range d.hosts {
		for i := range block {
			d.scheduleOperation(&block[i])
			d.enterCell(&block[i])
		}
	}
}

// scheduleOperation queues r's next application operation.
func (d *Driver) scheduleOperation(r *hostRec) {
	delay := des.Time(r.op.Exp(d.cfg.OperationMean))
	if d.cb.ExtraDelay != nil {
		delay += d.cb.ExtraDelay(mobile.HostID(r.id))
	}
	d.sched.ScheduleArgAfter(int(r.id), delay, "op", d.opFn, r)
}

// operate performs one application operation for r's host, then moves
// its operation loop on to the next operation that must be an event.
func (d *Driver) operate(r *hostRec) {
	if r.away {
		// Computation is suspended while disconnected; the loop resumes
		// on reconnection. (Only an undrawn operation can find the host
		// away: one drawn ahead falls before the pending mobility event.)
		r.paused = true
		return
	}
	c := d.shard(r)
	comm := r.drawn == opComm
	if r.drawn == opUndrawn {
		comm = r.op.Bernoulli(d.cfg.PComm)
	}
	r.drawn = opUndrawn
	switch {
	case !comm:
		c.Internal++
	case r.op.Bernoulli(d.cfg.PSend) && d.net.NumHosts() > 1:
		d.cb.Send(mobile.HostID(r.id), d.pickDestination(r))
		c.Sends++
	default:
		if d.cb.Receive(mobile.HostID(r.id)) {
			c.Receives++
		} else {
			c.EmptyReceives++
		}
	}
	if d.cb.ExtraDelay != nil {
		d.scheduleOperation(r)
		return
	}
	d.runAhead(r, c)
}

// runAhead runs r's following internal operations in line and queues
// the first operation that must be an event: the first that communicates,
// falls at or after the pending mobility event, or is refused by
// Sched.Inline (at or past the horizon). The communication draw is made
// ahead only before the mobility event, where the host cannot be away —
// an operation that finds it away draws nothing — and is kept in r.drawn
// for the queued operation to use. Times accumulate as the events'
// would: each operation's time plus the next exponential delay.
func (d *Driver) runAhead(r *hostRec, c *Counters) {
	id := int(r.id)
	at := d.sched.Now(id)
	for {
		at += des.Time(r.op.Exp(d.cfg.OperationMean))
		if at >= r.mobAt {
			break
		}
		if r.op.Bernoulli(d.cfg.PComm) {
			r.drawn = opComm
			break
		}
		if !d.sched.Inline(id, at, "op") {
			r.drawn = opInternal
			break
		}
		c.Internal++
	}
	d.sched.ScheduleArg(id, at, "op", d.opFn, r)
}

// pickDestination draws a uniformly distributed destination other than
// r's own host.
func (d *Driver) pickDestination(r *hostRec) mobile.HostID {
	to := mobile.HostID(r.op.Intn(d.net.NumHosts() - 1))
	if to >= mobile.HostID(r.id) {
		to++
	}
	return to
}

// enterCell makes the host's next mobility decision, per §5.1: it is
// called at start, after every hand-off, and after every reconnection.
func (d *Driver) enterCell(r *hostRec) {
	mean := d.cfg.PermanenceMean(mobile.HostID(r.id), d.net.NumHosts())
	if r.mob.Bernoulli(d.cfg.PSwitch) {
		d.scheduleMobility(r, des.Time(r.mob.Exp(mean)), "handoff", d.handoffFn)
	} else {
		d.scheduleMobility(r, des.Time(r.mob.Exp(mean/3)), "disconnect", d.disconnectFn)
	}
}

// scheduleMobility queues r's next mobility event after delay and
// records its time in r.mobAt.
func (d *Driver) scheduleMobility(r *hostRec, delay des.Time, label string, fn des.ArgHandler) {
	id := int(r.id)
	r.mobAt = d.sched.Now(id) + delay
	d.sched.ScheduleArg(id, r.mobAt, label, fn, r)
}

// handoff moves the host to a uniformly chosen other cell and re-enters.
func (d *Driver) handoff(r *hostRec) {
	if r.away {
		return // defensive: mobility while disconnected is impossible
	}
	if d.net.NumStations() < 2 {
		// A single-cell world has nowhere to switch to: the stay simply
		// restarts (no basic checkpoint — no hand-off happened).
		d.enterCell(r)
		return
	}
	h := mobile.HostID(r.id)
	to := d.nextCell(r, d.net.Host(h).MSS())
	if err := d.net.SwitchCell(h, to); err != nil {
		panic("workload: " + err.Error()) // invariant violation, not a runtime condition
	}
	d.shard(r).Handoffs++
	d.enterCell(r)
}

// nextCell draws the hand-off destination under the configured topology.
func (d *Driver) nextCell(r *hostRec, cur mobile.MSSID) mobile.MSSID {
	n := d.net.NumStations()
	if d.cfg.CellTopology == Ring && n > 2 {
		if r.mob.Bernoulli(0.5) {
			return mobile.MSSID((int(cur) + 1) % n)
		}
		return mobile.MSSID((int(cur) + n - 1) % n)
	}
	to := mobile.MSSID(r.mob.Intn(n - 1))
	if to >= cur {
		to++
	}
	return to
}

// disconnect detaches the host and schedules its reconnection; its
// operation loop pauses at its next operation.
func (d *Driver) disconnect(r *hostRec) {
	if r.away {
		return
	}
	if err := d.net.Disconnect(mobile.HostID(r.id)); err != nil {
		panic("workload: " + err.Error())
	}
	r.away = true
	d.shard(r).Disconnects++
	d.scheduleMobility(r, des.Time(r.mob.Exp(d.cfg.DisconnectMean)), "reconnect", d.reconnectFn)
}

// reconnect reattaches the host at a uniformly chosen station and resumes
// its suspended processes.
func (d *Driver) reconnect(r *hostRec) {
	at := mobile.MSSID(r.mob.Intn(d.net.NumStations()))
	if err := d.net.Reconnect(mobile.HostID(r.id), at); err != nil {
		panic("workload: " + err.Error())
	}
	r.away = false
	d.shard(r).Reconnects++
	if r.paused {
		r.paused = false
		d.scheduleOperation(r)
	}
	d.enterCell(r)
}
