// Package live runs the checkpointing protocols in a *real* concurrent
// message-passing system instead of the discrete-event simulation: every
// mobile host and every support station is a goroutine, links are
// unbounded FIFO mailboxes, and the transport exhibits the at-least-once
// semantics the paper's system model assumes (§3) by injecting duplicate
// deliveries that hosts must suppress.
//
// The protocols themselves are the exact implementations from
// internal/protocol, and they are driven through the simulator's own
// protocol side (internal/protoside): the history, checkpoint store, trace,
// message log, decision log, cause tally, metrics and timeline come from
// the code the generative engine and the replay run, so a recording and its
// replay differ only in the world that produced the events. The package
// demonstrates that the protocols are engine-independent and lets the test
// suite check their invariants under real interleavings (run with -race).
//
// Topology and flow:
//
//	host --uplink--> station --wired--> station --downlink--> host
//
// A host's packets always enter the network at its *current* station; a
// shared location directory (the MSS cooperation of §2.1) routes them to
// the destination's current station, which delivers into the host's
// downlink mailbox (modelling the MSS buffering messages for a host that
// is slow, moving, or disconnected: the station never waits for it).
//
// The cluster has one lock: every protocol event, and every read of a
// host's station (the protocol side keeps the location directory), runs
// under Cluster.mu. The data plane does not: a checkpoint's image is built
// and verified after the event, on the goroutine of the host whose
// checkpoint it is. The links and the skew
// gate lock themselves with leaf locks, and the run counters are atomic.
package live

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/statestore"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/wire"
)

// Config describes a live cluster run.
type Config struct {
	Hosts    int
	Stations int
	// OpsPerHost is the number of operations each host performs before
	// retiring.
	OpsPerHost int
	// PSend, PSwitch, PDisconnect are the per-operation probabilities of
	// sending, switching cells, and disconnecting (the remainder are
	// receive attempts).
	PSend       float64
	PSwitch     float64
	PDisconnect float64
	// DupProbability is the chance a delivered packet is duplicated by
	// the transport (exercising the at-least-once semantics).
	DupProbability float64
	// Joins is the number of additional hosts that join while the
	// cluster runs (dynamic membership under real concurrency). Join j
	// happens once the slowest running host has done 50·(j+1) operations
	// (or every host has retired); the joiner then performs OpsPerHost
	// operations like everyone else.
	Joins int
	Seed  uint64

	// LogMode enables MSS-resident message logging (internal/mlog):
	// stations log every delivery, hand-offs ship the log between
	// stations as wire.LogTransfer frames, and Recover replays logged
	// messages past the restored checkpoints.
	LogMode mlog.Mode

	// Metrics, when non-nil, receives the cluster's observability
	// instruments (internal/obs): the protocol side's, under the
	// simulator's names (sim_checkpoints_total by cause,
	// sim_forced_checkpoints_total, sim_piggyback_bytes_total, ..., the
	// mlog_* families), plus the cluster's own live_* traffic counters,
	// queue-depth gauges for the wired inboxes and downlinks, the replay
	// count and Go runtime gauges. Safe to snapshot (e.g. from
	// obs.ServeDebug's /metrics endpoint) while the cluster runs — the
	// protocol side's readers take the cluster's lock, and the live_*
	// ones read atomics.
	Metrics *obs.Registry

	// Timeline, when non-nil, receives the cluster's protocol events —
	// sends, deliveries, checkpoints, log flushes, cell switches,
	// disconnections, joins — drawn when Run ends from the history and
	// the decision log, which it makes the cluster keep, by the function
	// that draws the simulator's (protoside.Side.RenderTimeline): each
	// packet's flow links its send to its delivery and to the forced
	// checkpoints that delivery induces, its id the sender and the
	// sender's send ordinal. Each Recover adds a flow linking the failure
	// to every host it rolls back. Timestamps are the logical tick (the
	// cluster has no virtual clock), so the trace shows ordering and
	// causality, not durations. It is scheduler-dependent — a record of
	// this run, not of "the" run — but up to the first Recover a replay of
	// the run's recording, under the same logging discipline, exports the
	// same bytes.
	Timeline *obs.Timeline

	// Record captures the run for differential replay: the cluster's
	// protocol decisions go into a replaycmp.Log stamped with the
	// history position, and Schedule exports the history the protocol
	// side keeps of every run (send choices, delivery order, mobility
	// decisions, joins) as a trace.Schedule. Feed the schedule to
	// sim.Config.Schedule to re-execute the exact history
	// deterministically and replaycmp.Compare the two decision logs
	// (experiment E24).
	Record bool
}

// DefaultConfig returns a small cluster that exercises every mechanism.
func DefaultConfig() Config {
	return Config{
		Hosts:          8,
		Stations:       4,
		OpsPerHost:     400,
		PSend:          0.30,
		PSwitch:        0.05,
		PDisconnect:    0.02,
		DupProbability: 0.10,
		Seed:           1,
	}
}

// Validate reports a descriptive error for bad configurations.
func (c Config) Validate() error {
	switch {
	case c.Hosts <= 1:
		return fmt.Errorf("live: Hosts = %d, need > 1", c.Hosts)
	case c.Stations <= 1:
		return fmt.Errorf("live: Stations = %d, need > 1", c.Stations)
	case c.OpsPerHost <= 0:
		return fmt.Errorf("live: OpsPerHost = %d, need > 0", c.OpsPerHost)
	case c.PSend < 0 || c.PSwitch < 0 || c.PDisconnect < 0 ||
		c.PSend+c.PSwitch+c.PDisconnect > 1:
		return fmt.Errorf("live: operation probabilities invalid")
	case c.DupProbability < 0 || c.DupProbability > 1:
		return fmt.Errorf("live: DupProbability = %v out of [0,1]", c.DupProbability)
	case c.Joins < 0:
		return fmt.Errorf("live: Joins = %d, need >= 0", c.Joins)
	case c.LogMode != mlog.Off && c.LogMode != mlog.Pessimistic && c.LogMode != mlog.Optimistic:
		return fmt.Errorf("live: LogMode %v unknown", c.LogMode)
	}
	return nil
}

// NewProtocol constructs the protocol under test for n hosts: the
// registry's constructor signature (see protocol.Constructor for what
// each argument is for).
type NewProtocol = protocol.Constructor

// Factory returns the registry's constructor for name. The cluster's
// hosts drive their protocol with their own operations alone, so a
// Coordinated protocol, which the environment's clock drives, is refused.
func Factory(name string) (NewProtocol, error) {
	e, ok := protocol.Lookup(name)
	if !ok || e.Coordinated {
		return nil, fmt.Errorf("live: protocol %q is unknown or driven by marker rounds or timer ticks, and the cluster has no clock", name)
	}
	return e.New, nil
}

// packet is what travels on the links: a routing header the stations
// read, plus the marshaled frame (internal/wire) the receiving host
// decodes — the piggyback really crosses the "network" as bytes.
type packet struct {
	to    mobile.HostID
	frame []byte
}

// Counters summarizes a live run. While the cluster runs its fields are
// updated and sampled through sync/atomic.
type Counters struct {
	Sent       int64 // application messages sent
	Delivered  int64 // distinct messages handed to the application
	Duplicates int64 // transport duplicates suppressed by receivers
	Switches   int64 // completed cell switches
	Disconnect int64 // completed disconnect/reconnect cycles
	Undrained  int64 // messages still buffered when the run ended
	Joined     int64 // hosts that joined while the cluster ran

	// FrameBytes is the total encoded packet volume that crossed the
	// links (header + piggyback, per internal/wire).
	FrameBytes int64
	// LogFrameBytes is the encoded wire.LogTransfer volume that moved
	// message logs between stations on hand-offs (also in FrameBytes);
	// LogRecords is the number of log records those frames carried. A
	// hand-off ships the host's retained log — for an index-based
	// protocol the suffix past the recovery-line frontier, for the others
	// everything ever logged — so LogRecords over Switches is what one
	// hand-off costs.
	LogFrameBytes int64
	LogRecords    int64
	// StateBytes is the checkpoint state volume shipped host->station;
	// WiredStateBytes is the base-image volume fetched station->station.
	StateBytes      int64
	WiredStateBytes int64
	// DecodeErrors and StateErrors count transport/data-plane failures;
	// both must be zero in a healthy run (tests assert it).
	DecodeErrors int64
	StateErrors  int64
}

// Cluster is a running (or finished) live system.
//
// The locking discipline is a machine-checked contract: every field
// carries a //guard: directive (simlint's guardlint verifies the access
// sites). The cluster has one lock, mu; the mailboxes and the gate lock
// themselves with leaf locks, never taken the other way round.
type Cluster struct {
	// counters is the run summary, updated and sampled through sync/atomic.
	// It is the first field, so its int64s are 64-bit aligned on every
	// platform, as sync/atomic requires of them.
	//
	//guard:none atomic
	counters Counters

	//guard:none immutable after NewCluster returns
	cfg Config

	// side is the protocol side — internal/protoside, the one the
	// simulator's engine and replay drive — holding the run's history
	// (always recorded) and the cluster's one slot: the protocol, the
	// checkpoint store, the trace (its view of the history), the MSS
	// message log (nil unless Config.LogMode enables it) and the decision
	// log (nil unless Config.Record). Every protocol event mirrors through
	// it under mu: deliveries, hand-off transfers and disconnect flushes of
	// the log included. The side's station table is the cluster's location
	// directory: each host's current (while disconnected: last) station,
	// which hand-offs move and sends route through.
	//
	//guard:mu
	side *protoside.Side

	// mu serializes the protocol events, so the history, decision log and
	// replay see one total order under one tick. The protocol state is
	// per-host, so a production system would stripe this lock by host. It
	// is the cluster's bottleneck: on the live-cluster workload (QBC,
	// pessimistic log, 8 hosts × 20 000 operations, 20 clusters, two
	// vCPUs, under the mutex profiler) goroutines waited 1.7–2.3 s on it in
	// all while the clusters ran 1.8–2.5 s, and the same clusters run
	// faster at GOMAXPROCS 1 (E40).
	mu sync.Mutex

	// gate keeps every running host within skewWindow operations of the
	// slowest (gate.go); it is never entered with mu held.
	//
	//guard:none made by NewCluster; the gate synchronizes itself
	gate *gate

	// states and group are the real data plane: each host's page-tracked
	// memory image, checkpointed incrementally into the station group,
	// which keeps each host's images apart. Host h's state and images are
	// touched only on h's goroutine — its application writes, and the
	// checkpoints its own events take (ckpts) — or while nothing else runs
	// (Start, the final drain, Recover), so neither needs mu. Both are made
	// by NewCluster for every host the run can have.
	//
	//guard:none made by NewCluster; element h is host h's goroutine's alone
	states []*statestore.HostState

	//guard:none made by NewCluster; host h's images are host h's goroutine's alone
	group *statestore.Group

	// ckpts holds, per host, the checkpoints its current event took whose
	// images are still to be built: the protocol's checkpointer appends
	// under mu, and the host's goroutine applies them once mu is released.
	// Only host h's events checkpoint host h (the protocol side enforces
	// it).
	//
	//guard:none made by NewCluster; element h is host h's goroutine's alone
	ckpts [][]ckptAt

	// hosts is the number of hosts in the run so far: Hosts, plus one per
	// join.
	//
	//guard:mu
	hosts int

	// downlink and seen hold each host's downlink mailbox and one-id
	// duplicate-suppression filter, one per host the run can have
	// (Hosts + Joins). A filter is touched only by its host's goroutine
	// while the run is live, and by the final drain after every host has
	// retired (ordered by the WaitGroup, so there is no race).
	//
	//guard:none made by NewCluster; the slice never changes, and a mailbox locks itself
	downlink []*mailbox

	//guard:none made by NewCluster; the slice never changes, and each filter has one goroutine at a time
	seen []*dupFilter

	// wired holds one inbox per station.
	//
	//guard:none mailboxes made at construction; the slice never grows, and a mailbox locks itself
	wired []*mailbox

	//guard:none set once by instrument before any goroutine starts; an atomic counter (nil without Config.Metrics)
	replays *obs.Counter

	// tick is the logical clock: each protocol event advances it once, and
	// everything the event produces — history row, store records, log
	// entries, timeline events — carries that one instant. During Run it
	// is the event's history position + 1.
	//
	//guard:mu
	tick uint64

	// nextID numbers the packets from 0 in send order: under mu, as the
	// history numbers its messages, so a packet's id is its message
	// ordinal.
	//
	//guard:mu
	nextID uint64
}

// ckptAt is a checkpoint whose image is still to be built: its ordinal,
// which is also its data-plane sequence number, and the station it lands
// on.
type ckptAt struct{ seq, station int }

// apply is one protocol event under mu: it advances the logical clock
// and hands ev, at the new tick, to the protocol side.
//
//locks:held mu
func (c *Cluster) apply(ev trace.Event, decoded []any) []any {
	c.tick++
	ev.At = des.Time(c.tick)
	return c.side.Apply(ev, decoded)
}

// NewCluster wires a cluster; Run starts it.
func NewCluster(cfg Config, mk NewProtocol) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hist := trace.NewHistory(cfg.Hosts, cfg.Stations)
	lg, err := mlog.Open(cfg.LogMode, hist)
	if err != nil {
		return nil, err
	}
	// A joiner's downlink and filter are waiting for it, so no slice
	// changes while the cluster runs.
	all := cfg.Hosts + cfg.Joins
	c := &Cluster{
		cfg:      cfg,
		seen:     make([]*dupFilter, all),
		states:   make([]*statestore.HostState, all),
		group:    statestore.NewGroupOf(cfg.Stations, all),
		ckpts:    make([][]ckptAt, all),
		downlink: make([]*mailbox, all),
		wired:    make([]*mailbox, cfg.Stations),
		gate:     newGate(cfg.Hosts, all),
		hosts:    cfg.Hosts,
	}
	for i := range c.downlink {
		c.states[i] = statestore.NewHostState(8)
		c.downlink[i] = newMailbox()
		c.seen[i] = new(dupFilter)
	}
	for s := range c.wired {
		c.wired[s] = newMailbox()
	}
	c.side = protoside.New(1, cfg.Hosts, cfg.Stations, hist, cfg.Metrics)
	slot := protoside.Slot{Store: storage.NewStore(storage.DefaultCostModel()), Trace: hist.View(), MLog: lg}
	mssOf := c.side.Station
	err = c.side.InitSlot(0, slot, false, func(ckpt protocol.Checkpointer, store *storage.Store) (protocol.Protocol, error) {
		return mk(cfg.Hosts, c.dataPlane(ckpt), store, mssOf), nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Record || cfg.Timeline != nil {
		// The timeline is drawn from the history and the decision log
		// once the run is over (drainFinal).
		c.side.Slots[0].Dec = replaycmp.NewLog(c.side.Slots[0].Name, cfg.Hosts)
	}
	c.instrument(cfg.Metrics)
	return c, nil
}

// instrument registers the cluster's observability instruments: the
// protocol side's, sampled under mu, and the cluster's own, which read
// atomics and self-locking mailboxes, so a concurrent Snapshot (e.g.
// obs.ServeDebug's /metrics endpoint while the cluster runs) is race-free.
//
//locks:quiescent runs inside NewCluster, before any goroutine exists
func (c *Cluster) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.side.Instrument(&c.mu)
	for _, h := range [][2]string{
		{"live_replayed_messages_total", "Logged messages re-delivered during recovery."},
		{"live_sent_total", "Packets handed to the transport."},
		{"live_delivered_total", "Packets delivered to their destination host."},
		{"live_duplicates_suppressed_total", "Duplicate deliveries dropped by the at-least-once filter."},
		{"live_switches_total", "Host migrations between station cells."},
		{"live_disconnects_total", "Host disconnections from the network."},
		{"live_joined_total", "Hosts that joined the cluster after start."},
		{"live_frame_bytes_total", "Encoded frame bytes put on the wire."},
		{"live_log_transfer_records_total", "Log records shipped between stations by hand-off log transfers."},
		{"live_state_bytes_total", "Checkpoint state bytes shipped to stations."},
		{"live_decode_errors_total", "Frames that failed wire decoding."},
		{"live_uplink_depth", "Frames queued in a station's wired inbox."},
		{"live_downlink_depth_total", "Frames queued across all host downlinks."},
	} {
		reg.Help(h[0], h[1])
	}
	c.replays = reg.Counter("live_replayed_messages_total")

	counter := func(name string, v *int64) {
		reg.CounterFunc(name, func() int64 { return atomic.LoadInt64(v) })
	}
	counter("live_sent_total", &c.counters.Sent)
	counter("live_delivered_total", &c.counters.Delivered)
	counter("live_duplicates_suppressed_total", &c.counters.Duplicates)
	counter("live_switches_total", &c.counters.Switches)
	counter("live_disconnects_total", &c.counters.Disconnect)
	counter("live_joined_total", &c.counters.Joined)
	counter("live_frame_bytes_total", &c.counters.FrameBytes)
	counter("live_log_transfer_records_total", &c.counters.LogRecords)
	counter("live_state_bytes_total", &c.counters.StateBytes)
	counter("live_decode_errors_total", &c.counters.DecodeErrors)

	// Queue depths: per-station wired inboxes plus the total downlink
	// backlog; both sets of mailboxes are fixed at construction.
	for s, w := range c.wired {
		reg.GaugeFunc("live_uplink_depth", func() int64 { return int64(w.len()) },
			"station", strconv.Itoa(s))
	}
	reg.GaugeFunc("live_downlink_depth_total", func() int64 {
		var d int64
		for _, dl := range c.downlink {
			d += int64(dl.len())
		}
		return d
	})
	obs.RegisterRuntimeGauges(reg)
}

// dataPlane wraps the side's checkpointer with the cluster's real data
// plane: it only notes the checkpoint's ordinal and station for the host,
// whose goroutine builds the image once the event has released mu
// (storeImages). That is race-free because the side lets an event of host
// h checkpoint host h alone: ckpts[h] is written by h's own events, under
// mu, and read by h's goroutine after them.
func (c *Cluster) dataPlane(ckpt protocol.Checkpointer) protocol.Checkpointer {
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		rec := ckpt(h, index, kind)
		c.ckpts[h] = append(c.ckpts[h], ckptAt{seq: int(rec.Ordinal), station: int(rec.MSS)})
		return rec
	}
}

// storeImages builds the images of the checkpoints host h's last event
// took: it extracts each incremental state delta, reconstructs the
// checkpoint on the station it landed on, and verifies the result byte
// for byte against the host's state. It runs on h's goroutine after the
// event, before the host writes its state again.
func (c *Cluster) storeImages(h mobile.HostID) {
	state := c.states[h]
	for _, ck := range c.ckpts[h] {
		delta := state.Checkpoint(ck.seq, ck.seq == 0)
		im, err := c.group.Station(ck.station).Apply(int(h), delta)
		atomic.AddInt64(&c.counters.StateBytes, int64(delta.Bytes()))
		if err != nil || !state.Equal(im.Data) {
			atomic.AddInt64(&c.counters.StateErrors, 1)
			continue
		}
		atomic.AddInt64(&c.counters.WiredStateBytes, im.Fetched)
	}
	c.ckpts[h] = c.ckpts[h][:0]
}

// Store returns the checkpoint store (safe to read after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) Store() *storage.Store { return c.side.Slots[0].Store }

// Trace returns the recorded message trace (after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) Trace() *trace.Trace { return c.side.Slots[0].Trace }

// Protocol returns the protocol instance (after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) Protocol() protocol.Protocol { return c.side.Slots[0].Proto }

// Counters returns the run summary (after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) Counters() Counters { return c.counters }

// MLog returns the MSS message log, or nil when logging is off (safe to
// read after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) MLog() *mlog.Log { return c.side.Slots[0].MLog }

// Schedule exports the run's history as the recorded nondeterminism
// schedule, in-flight section included, or returns nil when Config.Record
// was off (call after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) Schedule() *trace.Schedule {
	if !c.cfg.Record {
		return nil
	}
	return c.side.Hist.Schedule(0, c.side.Slots[0].Name, c.cfg.Seed)
}

// InFlight returns the protocol side's messages in flight, in id order
// (call after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) InFlight() []uint64 { return c.side.InFlight() }

// Decisions returns the recorded protocol-decision log, including the
// post-hoc recovery-line matrix, or nil when Config.Record was off
// (read after Run returns).
//
//locks:quiescent read-side accessor, documented for use after Run returns
func (c *Cluster) Decisions() *replaycmp.Log {
	if !c.cfg.Record {
		return nil
	}
	return c.side.Slots[0].Dec
}

// Run executes the whole cluster to completion: it starts one goroutine
// per station and per host, waits for every host to retire, and then
// drains the network so the counters and trace are final.
func (c *Cluster) Run() {
	c.mu.Lock()
	c.side.Start()
	c.mu.Unlock()
	for h := range c.cfg.Hosts {
		c.storeImages(mobile.HostID(h))
	}

	var stations sync.WaitGroup
	for s := range c.wired {
		stations.Add(1)
		go func(s int) {
			defer stations.Done()
			c.stationLoop(s)
		}(s)
	}

	var hosts sync.WaitGroup
	for h := 0; h < c.cfg.Hosts; h++ {
		hosts.Add(1)
		go func(h mobile.HostID) {
			defer hosts.Done()
			c.hostLoop(h)
		}(mobile.HostID(h))
	}
	// Late joiners: real membership changes while the system runs. Join j
	// waits until the slowest running host has done 50·(j+1) operations
	// (or every host has retired), so joins interleave with running
	// traffic; it then admits the next host to the protocol (a trace.Join) under
	// mu, enters it into the gate at the slowest host's count, and runs it.
	for j := 0; j < c.cfg.Joins; j++ {
		hosts.Add(1)
		go func(j int) {
			defer hosts.Done()
			c.gate.await(int64(50 * (j + 1)))
			h := c.addHost()
			c.gate.join(h)
			c.hostLoop(h)
		}(j)
	}
	hosts.Wait()

	// All hosts retired: no new uplink traffic. Close the wired inboxes
	// so stations drain what is in flight and exit.
	for _, w := range c.wired {
		w.close()
	}
	stations.Wait()

	c.drainFinal()
}

// drainFinal delivers the traffic still buffered for hosts that retired
// before it arrived (the at-least-once transport of §3 never loses
// messages), counts what is left, collects a logged cluster's station
// images once more, finishes the decision log and draws the timeline,
// before any Recover adds its rollback flow. Anything still queued
// after the loop indicates a routing bug, surfaced through the Undrained
// counter.
//
//locks:quiescent every station and host goroutine has been joined
func (c *Cluster) drainFinal() {
	var undrained int64
	for h, dl := range c.downlink {
		c.drain(mobile.HostID(h), dl, c.seen[h])
		undrained += int64(dl.len())
	}
	c.counters.Undrained = undrained

	s := &c.side.Slots[0]
	if s.MLog != nil {
		// The host that retired first — at most skewWindow operations early
		// — held every frontier at its index until the drain caught it up,
		// and the later ones had no hand-off left: collect every host's
		// images once more.
		_, keep := s.Frontier()
		for h, ord := range keep {
			c.group.Discard(h, ord)
		}
	}
	if c.cfg.Record {
		s.FinishRecoveryLines()
	}
	c.side.RenderTimeline(c.cfg.Timeline)
}

// addHost admits the next host to the protocol at station h mod
// Stations, where every host starts. Safe to call while the cluster runs.
func (c *Cluster) addHost() mobile.HostID {
	c.mu.Lock()
	h := mobile.HostID(c.hosts)
	c.hosts++
	c.apply(trace.Event{Kind: trace.Join, Host: int32(h), Arg: int32(int(h) % c.cfg.Stations)}, nil)
	c.mu.Unlock()
	c.storeImages(h)

	atomic.AddInt64(&c.counters.Joined, 1)
	return h
}

// stationLoop routes wired packets to the destination host's downlink,
// occasionally duplicating a delivery (at-least-once transport). The
// copy goes in with its original in one put: every station's loop feeds
// the same downlink, and a packet of another station's between the two
// would let the copy past the host's dupFilter, which remembers one id.
func (c *Cluster) stationLoop(s int) {
	src := rng.NewStream(c.cfg.Seed, 1000+uint64(s))
	for {
		pkt, ok := c.wired[s].get()
		if !ok {
			return
		}
		dst := c.downlink[pkt.to]
		if src.Bernoulli(c.cfg.DupProbability) {
			dst.put(pkt, pkt)
		} else {
			dst.put(pkt)
		}
	}
}

// hostLoop performs the host's operations and retires.
func (c *Cluster) hostLoop(h mobile.HostID) {
	src := rng.NewStream(c.cfg.Seed, uint64(h))
	dl, seen := c.downlink[h], c.seen[h]
	var xfer logTransferScratch // this goroutine's hand-off buffers
	connected := true
	for op := 0; op < c.cfg.OpsPerHost; op++ {
		c.gate.admit(h) // at most skewWindow operations ahead of the slowest host
		r := src.Float64()
		switch {
		case r < c.cfg.PSend:
			if connected {
				c.send(h, src)
			}
		case r < c.cfg.PSend+c.cfg.PSwitch:
			if connected {
				c.switchCell(h, src, &xfer)
			}
		case r < c.cfg.PSend+c.cfg.PSwitch+c.cfg.PDisconnect:
			if connected {
				c.disconnect(h)
				connected = false
			} else {
				c.reconnect(h)
				connected = true
			}
		default:
			if connected {
				if pkt, ok := dl.tryGet(); ok {
					c.deliver(h, pkt, seen)
				}
			}
		}
	}
	// Out of the minimum before the drain, which can take a while and
	// holds nobody else back.
	c.gate.retire(h)
	if !connected {
		// Retire connected so the final drain can deliver to us — and so
		// the run ends with every host's last checkpoint on its station.
		c.reconnect(h)
	}
	// Drain remaining downlink traffic so late messages are delivered
	// (best effort; what is still in the wired queues stays undrained).
	c.drain(h, dl, seen)
}

// drain delivers everything queued on h's downlink right now.
func (c *Cluster) drain(h mobile.HostID, dl *mailbox, seen *dupFilter) {
	for {
		pkt, ok := dl.tryGet()
		if !ok {
			return
		}
		c.deliver(h, pkt, seen)
	}
}

// send picks a peer among the hosts that have joined so far, runs the
// protocol's OnSend and marshals the frame, mutates the sender's
// application state (a computation has observable effects) and injects
// the frame at the host's current station.
func (c *Cluster) send(from mobile.HostID, src *rng.Source) {
	c.mu.Lock()
	to := mobile.HostID(src.Intn(c.hosts - 1))
	if to >= from {
		to++
	}
	w := c.wired[c.side.Station(from)]
	id := c.nextID
	c.nextID++
	pb := c.apply(trace.Event{Kind: trace.Send, Host: int32(from), Peer: int32(to), Msg: id}, nil)
	// A TP piggyback names its hosts' station tables, which the protocol
	// events under mu grow: it is encoded before mu is released.
	frame, err := (&wire.Packet{ID: id, From: from, To: to, Piggyback: pb[0]}).Marshal()
	c.mu.Unlock()
	if err != nil {
		panic("live: " + err.Error()) // protocol produced an unencodable piggyback
	}
	c.storeImages(from)

	// The send is an event of the application: it dirties some state,
	// after the checkpoints OnSend took.
	var scratch [16]byte
	for i := range scratch {
		scratch[i] = byte(src.Uint64())
	}
	off := src.Intn(8*statestore.PageSize - len(scratch))
	if err := c.states[from].Write(off, scratch[:]); err != nil {
		panic("live: " + err.Error())
	}

	w.put(packet{to: to, frame: frame})

	atomic.AddInt64(&c.counters.Sent, 1)
	atomic.AddInt64(&c.counters.FrameBytes, int64(len(frame)))
}

// deliver decodes the frame, suppresses duplicates and hands the packet
// to the protocol side at the host's current station.
func (c *Cluster) deliver(h mobile.HostID, pkt packet, seen *dupFilter) {
	p, err := wire.Unmarshal(pkt.frame)
	if err != nil {
		atomic.AddInt64(&c.counters.DecodeErrors, 1)
		return
	}
	if seen.Suppress(p.ID) {
		atomic.AddInt64(&c.counters.Duplicates, 1)
		return
	}
	c.mu.Lock()
	pb := [1]any{p.Piggyback} // the protocols see what came off the wire
	c.apply(trace.Event{Kind: trace.Deliver, Host: int32(h), Peer: int32(p.From), Msg: p.ID}, pb[:])
	c.mu.Unlock()
	c.storeImages(h)
	atomic.AddInt64(&c.counters.Delivered, 1)
}

// switchCell moves the host to another station and takes the basic
// checkpoint the mobile model mandates; with logging on, the host's log
// follows it (pruned at the recovery-line frontier first, for the
// index-based protocols): its wire records are built under mu and cross
// the wire after mu is released, and its station images below the same
// frontier are dropped, also after mu.
func (c *Cluster) switchCell(h mobile.HostID, src *rng.Source, xfer *logTransferScratch) {
	c.mu.Lock()
	cur := int(c.side.Station(h))
	next := src.Intn(c.cfg.Stations - 1)
	if next >= cur {
		next++
	}
	// The move is a protocol event: committed under mu, it is ordered
	// against the sends, deliveries and hand-offs around it, as a recorded
	// schedule must see them.
	c.apply(trace.Event{Kind: trace.Handoff, Host: int32(h), Arg: int32(next)}, nil)
	// The shipped references name rows of the history, which every
	// protocol event grows under mu: the records are built from them here,
	// and only encoded, decoded and counted after mu is released, on h's
	// goroutine, from h's own scratch.
	sl := &c.side.Slots[0]
	logged, frontier := sl.MLog != nil, sl.HandoffFrontier
	if logged {
		xfer.recs = c.shippedRecords(xfer.recs[:0], h)
	}
	c.mu.Unlock()
	c.storeImages(h)

	if logged {
		// A logged cluster recovers on the replay-aware line, which restores
		// no checkpoint below the frontier (DESIGN §3).
		c.group.Discard(int(h), frontier)
		c.transferLog(xfer, h, mobile.MSSID(cur), mobile.MSSID(next), xfer.recs)
	}
	atomic.AddInt64(&c.counters.Switches, 1)
}

// logTransferScratch is the memory one host goroutine's hand-offs are
// staged in: the hand-off's records, the encoded frame of the chunk being
// sent, and the receiving station's decode target. A hand-off ships the
// host's retained log (unbounded for the protocols whose logs cannot be
// pruned), so building these afresh every time costs as much as the
// transfer itself; the records grow to the largest hand-off its host has
// shipped, the frame and the decode target to the largest chunk (at most
// wire.MaxTransferRecords records), and each is then reused.
type logTransferScratch struct {
	recs  []wire.LogRecord
	out   wire.LogTransfer
	frame []byte
	in    wire.LogTransfer
}

// shippedRecords appends to dst the wire records of what host h's latest
// hand-off shipped: the slot's shipped references, seq
// MLog.RetainedFrom(h) first, resolved against the history they name.
//
//locks:held mu
func (c *Cluster) shippedRecords(dst []wire.LogRecord, h mobile.HostID) []wire.LogRecord {
	sl := &c.side.Slots[0]
	first := sl.MLog.RetainedFrom(h)
	for seq := first; seq < first+sl.Shipped; seq++ {
		e, _ := sl.MLog.EntryAt(h, seq)
		dst = append(dst, wire.LogRecord{
			Seq:       uint64(e.Seq),
			MsgID:     e.MsgID,
			From:      e.From,
			RecvCount: int64(e.RecvCount),
			At:        float64(e.At),
		})
	}
	return dst
}

// transferLog ships a hand-off's log records between stations as encoded
// wire.LogTransfer frames, decoding each on arrival like any other
// network unit (the log really crosses the wire as bytes). A
// long-retained log goes in chunks of at most wire.MaxTransferRecords
// records so no single frame grows with the log length — the frames
// wire.SplitTransfer would produce, cut from the record list in place; an
// empty log still ships one (header-only) frame so the hand-off is
// visible to the receiving station.
func (c *Cluster) transferLog(x *logTransferScratch, h mobile.HostID, from, to mobile.MSSID, recs []wire.LogRecord) {
	x.out.Host, x.out.FromMSS, x.out.ToMSS = h, from, to
	var frameBytes, decodeErrors int64
	for off := 0; off == 0 || off < len(recs); off += wire.MaxTransferRecords {
		chunk := recs[off:min(off+wire.MaxTransferRecords, len(recs))]
		x.out.Records = chunk
		var err error
		x.frame, err = wire.AppendLogTransfer(x.frame[:0], &x.out)
		if err != nil {
			panic("live: " + err.Error()) // log produced an unencodable transfer
		}
		frameBytes += int64(len(x.frame))
		if err := wire.DecodeLogTransfer(&x.in, x.frame); err != nil || x.in.Host != h || len(x.in.Records) != len(chunk) {
			decodeErrors++
		}
	}
	atomic.AddInt64(&c.counters.FrameBytes, frameBytes)
	atomic.AddInt64(&c.counters.LogFrameBytes, frameBytes)
	atomic.AddInt64(&c.counters.LogRecords, int64(len(recs)))
	atomic.AddInt64(&c.counters.DecodeErrors, decodeErrors)
}

// disconnect detaches the host (it stops receiving; its downlink keeps
// buffering, which is the MSS parking messages).
func (c *Cluster) disconnect(h mobile.HostID) {
	c.mu.Lock()
	c.apply(trace.Event{Kind: trace.Disconnect, Host: int32(h)}, nil)
	c.mu.Unlock()
	c.storeImages(h)
	atomic.AddInt64(&c.counters.Disconnect, 1)
}

// reconnect reattaches the host at its last station.
func (c *Cluster) reconnect(h mobile.HostID) {
	c.mu.Lock()
	c.apply(trace.Event{Kind: trace.Reconnect, Host: int32(h), Arg: int32(c.side.Station(h))}, nil)
	c.mu.Unlock()
	c.storeImages(h)
}
