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
	"slices"

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
	// non-negligible checkpointing time (§5.1 discusses that case).
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
type Driver struct {
	sched des.Sched
	lanes int
	net   *mobile.Network
	cfg   Config
	cb    Callbacks

	// Per-host streams, held by value in two flat tables: one allocation
	// each instead of 2n, and operate — the hottest function of the world
	// model — reaches its stream without a pointer chase. Take &d.opRNG[h]
	// only for the span of one handler: joins regrow the tables.
	opRNG  []rng.Source // operation stream of host i: rng.NewStream(seed, 2i)
	mobRNG []rng.Source // mobility stream of host i: rng.NewStream(seed, 2i+1)

	paused   []bool         // host's operation loop stopped due to disconnection
	counters []laneCounters // sharded by executing lane, merged in Counters()

	// Pooled-event trampolines: one long-lived handler per process kind
	// instead of one closure per scheduled event. Operations dominate the
	// event count, so this removes the largest per-event allocation.
	opFn         des.ArgHandler
	handoffFn    des.ArgHandler
	disconnectFn des.ArgHandler
	reconnectFn  des.ArgHandler
	// hostArg[i] is mobile.HostID(i) boxed once, so passing the host to a
	// trampoline never re-boxes (ids ≥ 256 would otherwise allocate).
	hostArg []any
}

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
	d.opFn = func(sim *des.Simulator, now des.Time, arg any) { d.operate(arg.(mobile.HostID)) }
	d.handoffFn = func(sim *des.Simulator, now des.Time, arg any) { d.handoff(arg.(mobile.HostID)) }
	d.disconnectFn = func(sim *des.Simulator, now des.Time, arg any) { d.disconnect(arg.(mobile.HostID)) }
	d.reconnectFn = func(sim *des.Simulator, now des.Time, arg any) { d.reconnect(arg.(mobile.HostID)) }
	d.growHosts(net.NumHosts(), seed)
	return d, nil
}

// growHosts extends the per-host tables to n hosts in one sized grow,
// giving every new id its own two streams of seed.
func (d *Driver) growHosts(n int, seed uint64) {
	old := len(d.opRNG)
	if n <= old {
		return
	}
	d.opRNG = slices.Grow(d.opRNG, n-old)[:n]
	d.mobRNG = slices.Grow(d.mobRNG, n-old)[:n]
	d.paused = slices.Grow(d.paused, n-old)[:n]
	d.hostArg = slices.Grow(d.hostArg, n-old)[:n]
	for i := old; i < n; i++ {
		d.opRNG[i] = *rng.NewStream(seed, uint64(2*i))
		d.mobRNG[i] = *rng.NewStream(seed, uint64(2*i+1))
		d.hostArg[i] = mobile.HostID(i)
	}
}

// lane maps a host to its counter shard.
func (d *Driver) lane(h mobile.HostID) int { return int(h) % d.lanes }

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
	d.scheduleOperation(h)
	d.enterCell(h)
}

// Start schedules the first operation and the first mobility decision of
// every host. Call once, before running the simulator.
func (d *Driver) Start() {
	for i := 0; i < d.net.NumHosts(); i++ {
		h := mobile.HostID(i)
		d.scheduleOperation(h)
		d.enterCell(h)
	}
}

// scheduleOperation queues host h's next application operation.
func (d *Driver) scheduleOperation(h mobile.HostID) {
	delay := des.Time(d.opRNG[h].Exp(d.cfg.OperationMean))
	if d.cb.ExtraDelay != nil {
		delay += d.cb.ExtraDelay(h)
	}
	d.sched.ScheduleArgAfter(int(h), delay, "op", d.opFn, d.hostArg[h])
}

// operate performs one application operation for host h.
func (d *Driver) operate(h mobile.HostID) {
	if !d.net.Host(h).Connected() {
		// Computation is suspended while disconnected; the loop resumes
		// on reconnection.
		d.paused[h] = true
		return
	}
	c := &d.counters[d.lane(h)].Counters
	switch {
	case !d.opRNG[h].Bernoulli(d.cfg.PComm):
		c.Internal++
	case d.opRNG[h].Bernoulli(d.cfg.PSend) && d.net.NumHosts() > 1:
		to := d.pickDestination(h)
		d.cb.Send(h, to)
		c.Sends++
	default:
		if d.cb.Receive(h) {
			c.Receives++
		} else {
			c.EmptyReceives++
		}
	}
	d.scheduleOperation(h)
}

// pickDestination draws a uniformly distributed destination != h.
func (d *Driver) pickDestination(h mobile.HostID) mobile.HostID {
	to := mobile.HostID(d.opRNG[h].Intn(d.net.NumHosts() - 1))
	if to >= h {
		to++
	}
	return to
}

// enterCell makes host h's next mobility decision, per §5.1: it is called
// at start, after every hand-off, and after every reconnection.
func (d *Driver) enterCell(h mobile.HostID) {
	src := &d.mobRNG[h]
	mean := d.cfg.PermanenceMean(h, d.net.NumHosts())
	if src.Bernoulli(d.cfg.PSwitch) {
		stay := des.Time(src.Exp(mean))
		d.sched.ScheduleArgAfter(int(h), stay, "handoff", d.handoffFn, d.hostArg[h])
	} else {
		stay := des.Time(src.Exp(mean / 3))
		d.sched.ScheduleArgAfter(int(h), stay, "disconnect", d.disconnectFn, d.hostArg[h])
	}
}

// handoff moves h to a uniformly chosen other cell and re-enters.
func (d *Driver) handoff(h mobile.HostID) {
	if !d.net.Host(h).Connected() {
		return // defensive: mobility while disconnected is impossible
	}
	if d.net.NumStations() < 2 {
		// A single-cell world has nowhere to switch to: the stay simply
		// restarts (no basic checkpoint — no hand-off happened).
		d.enterCell(h)
		return
	}
	cur := d.net.Host(h).MSS()
	to := d.nextCell(h, cur)
	if err := d.net.SwitchCell(h, to); err != nil {
		panic("workload: " + err.Error()) // invariant violation, not a runtime condition
	}
	d.counters[d.lane(h)].Handoffs++
	d.enterCell(h)
}

// nextCell draws the hand-off destination under the configured topology.
func (d *Driver) nextCell(h mobile.HostID, cur mobile.MSSID) mobile.MSSID {
	r := d.net.NumStations()
	if d.cfg.CellTopology == Ring && r > 2 {
		if d.mobRNG[h].Bernoulli(0.5) {
			return mobile.MSSID((int(cur) + 1) % r)
		}
		return mobile.MSSID((int(cur) + r - 1) % r)
	}
	to := mobile.MSSID(d.mobRNG[h].Intn(r - 1))
	if to >= cur {
		to++
	}
	return to
}

// disconnect detaches h, schedules its reconnection, and resumes its
// operation loop on reconnect.
func (d *Driver) disconnect(h mobile.HostID) {
	if !d.net.Host(h).Connected() {
		return
	}
	if err := d.net.Disconnect(h); err != nil {
		panic("workload: " + err.Error())
	}
	d.counters[d.lane(h)].Disconnects++
	gone := des.Time(d.mobRNG[h].Exp(d.cfg.DisconnectMean))
	d.sched.ScheduleArgAfter(int(h), gone, "reconnect", d.reconnectFn, d.hostArg[h])
}

// reconnect reattaches h at a uniformly chosen station and resumes its
// suspended processes.
func (d *Driver) reconnect(h mobile.HostID) {
	at := mobile.MSSID(d.mobRNG[h].Intn(d.net.NumStations()))
	if err := d.net.Reconnect(h, at); err != nil {
		panic("workload: " + err.Error())
	}
	d.counters[d.lane(h)].Reconnects++
	if d.paused[h] {
		d.paused[h] = false
		d.scheduleOperation(h)
	}
	d.enterCell(h)
}
