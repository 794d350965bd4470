// Package mobile models the mobile computing environment of the paper's
// §3: n mobile hosts (MHs) attached to r mobile support stations (MSSs)
// through wireless cells, with a wired network between MSSs.
//
// The package provides the *mechanics* of the environment — message
// routing through the current MSS, hand-off between cells, voluntary
// disconnection/reconnection, message buffering for unreachable hosts,
// and a home-agent location directory — while the stochastic *policies*
// (when hosts move, when they communicate) live in internal/workload.
//
// Host state lives in a sharded flat arena indexed by HostID rather than
// a slice of per-host allocations: records are contiguous (cache-friendly
// sweeps at n=1e6), and *Host pointers stay stable across dynamic joins
// because shards never reallocate. A network's shards hold the least
// power of two of records that fits its initial hosts, at most 4096: a
// ten-host world allocates sixteen records, not a million-host world's
// shard, and joins open further shards of the same size.
//
// Every action is accounted in Counters so higher layers can derive the
// channel-contention and energy costs the paper discusses in §2.1.
package mobile

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"mobickpt/internal/des"
	"mobickpt/internal/obs/probe"
)

// HostID identifies a mobile host, 0-based.
type HostID int

// MSSID identifies a mobile support station (equivalently, its cell),
// 0-based. The sentinel NoMSS marks a disconnected host.
type MSSID int

// NoMSS is the MSS of a disconnected host.
const NoMSS MSSID = -1

// Config describes the static environment.
type Config struct {
	NumHosts int // n mobile hosts
	NumMSS   int // r mobile support stations

	// WirelessLatency is the time for one message over a wireless cell
	// (MH->MSS or MSS->MH). The paper uses 0.01 time units.
	WirelessLatency des.Time
	// WiredLatency is the time for one MSS->MSS transfer. The paper uses
	// 0.01 time units.
	WiredLatency des.Time

	// Contention enables the finite-capacity wireless channel model of
	// §2.1 point (b): each cell is a FIFO server, so simultaneous
	// transmissions in one cell queue behind each other. The paper's
	// experiments use the infinite-capacity model (false); the contention
	// extension experiment turns it on.
	Contention bool

	// LossProbability is the chance one wireless transmission attempt is
	// lost. The transport retries after RetransmitTimeout until the hop
	// succeeds — the at-least-once delivery semantics the paper assumes
	// (§3, citing [2]). Zero (the default) disables the loss model.
	LossProbability float64
	// RetransmitTimeout is the wait before a lost transmission is
	// retried. Required positive when LossProbability > 0.
	RetransmitTimeout des.Time
}

// DefaultConfig returns the environment of the paper's §5.1: 10 MHs,
// 5 MSSs, 0.01 tu per hop.
func DefaultConfig() Config {
	return Config{NumHosts: 10, NumMSS: 5, WirelessLatency: 0.01, WiredLatency: 0.01}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	// A NaN passes every range test below; an infinite latency or timeout
	// parks every message at +Inf.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"WirelessLatency", float64(c.WirelessLatency)}, {"WiredLatency", float64(c.WiredLatency)},
		{"LossProbability", c.LossProbability}, {"RetransmitTimeout", float64(c.RetransmitTimeout)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("mobile: %s = %v, need a finite number", f.name, f.v)
		}
	}
	switch {
	case c.NumHosts <= 0:
		return fmt.Errorf("mobile: NumHosts = %d, need > 0", c.NumHosts)
	case c.NumMSS <= 0:
		return fmt.Errorf("mobile: NumMSS = %d, need > 0", c.NumMSS)
	case c.WirelessLatency < 0 || c.WiredLatency < 0:
		return fmt.Errorf("mobile: negative latency")
	case c.LossProbability < 0 || c.LossProbability >= 1:
		return fmt.Errorf("mobile: LossProbability = %v out of [0,1)", c.LossProbability)
	case c.LossProbability > 0 && c.RetransmitTimeout <= 0:
		return fmt.Errorf("mobile: loss model requires RetransmitTimeout > 0")
	}
	return nil
}

// Hooks are upcalls from the network mechanics into the protocol layer.
// Any hook may be nil.
type Hooks struct {
	// OnDeliver fires when a message is handed to the application by a
	// receive operation (not when it merely arrives at the MSS).
	OnDeliver func(now des.Time, h *Host, m *Message)
	// OnCellSwitch fires after a hand-off completes, with the old and new
	// stations. The paper mandates a basic checkpoint here.
	OnCellSwitch func(now des.Time, h *Host, from, to MSSID)
	// OnDisconnect fires when a host voluntarily disconnects. The paper
	// mandates a basic checkpoint here.
	OnDisconnect func(now des.Time, h *Host)
	// OnReconnect fires when a host reconnects at station at.
	OnReconnect func(now des.Time, h *Host, at MSSID)
}

// Counters accumulates the cost-relevant activity of the environment.
type Counters struct {
	AppMessages     int64 // application messages sent
	CtrlMessages    int64 // control messages (hand-off, disconnect, location)
	WirelessHops    int64 // messages crossing a wireless cell, either way
	WiredHops       int64 // messages crossing an MSS-MSS link
	Forwards        int64 // arrivals re-routed because the host moved
	Parked          int64 // arrivals buffered because the host was disconnected
	Delivered       int64 // messages handed to the application
	LocationQueries int64 // home-agent lookups
	LocationUpdates int64 // home-agent updates

	// ContentionDelay is the total time messages spent queueing for a
	// busy wireless channel (zero unless Config.Contention is set).
	ContentionDelay des.Time

	// Retransmissions counts wireless transmission attempts repeated
	// after a loss (zero unless Config.LossProbability is set).
	Retransmissions int64
}

// Host is a mobile host. Exported fields are stable identity/state read
// by higher layers; mutation goes through Network methods. Host records
// live inside the network's arena — higher layers hold *Host freely (the
// arena never moves a record: a full shard is never grown, a join opens
// a new one) but must not copy the struct.
type Host struct {
	ID HostID

	mss       MSSID // current station, NoMSS while disconnected
	connected bool
	lastMSS   MSSID // station the host was attached to before disconnecting

	// inbox is a head-indexed ring: arrivals append at the tail, receives
	// advance inboxHead instead of sliding every element down (the old
	// O(queue) copy per receive is what made deep queues quadratic).
	inbox     []*Message
	inboxHead int
	parked    []*Message // arrived while disconnected; flushed on reconnect

	switches    int // completed hand-offs
	disconnects int // completed disconnections
}

// MSS reports the host's current station, or NoMSS when disconnected.
func (h *Host) MSS() MSSID { return h.mss }

// Connected reports whether the host is attached to a cell.
func (h *Host) Connected() bool { return h.connected }

// LastMSS returns the station the host is attached to, or — while
// disconnected — the station it departed from (the one holding its
// checkpoints and parked messages).
func (h *Host) LastMSS() MSSID {
	if h.connected {
		return h.mss
	}
	return h.lastMSS
}

// QueueLen returns the number of arrived-but-undelivered messages.
func (h *Host) QueueLen() int { return len(h.inbox) - h.inboxHead }

// ParkedLen returns the number of messages buffered during disconnection.
func (h *Host) ParkedLen() int { return len(h.parked) }

// Switches returns the number of completed hand-offs.
func (h *Host) Switches() int { return h.switches }

// Disconnects returns the number of completed disconnections.
func (h *Host) Disconnects() int { return h.disconnects }

// Station is a mobile support station. It owns the per-cell bookkeeping;
// checkpoint stable storage is layered on top by internal/storage.
type Station struct {
	ID      MSSID
	members int // hosts currently in this cell
}

// Members returns the number of hosts currently in the cell.
func (s *Station) Members() int { return s.members }

// hostShardBits caps the arena's shards at 4096 records, E21's layout for
// a million hosts; a smaller world's hold the least power of two that fits
// it (Network.shift). On a column.Column, tp-1e3 lost 6–9/10 wall_s pairs (E52).
const hostShardBits = 12

// laneCounters is one lane's private Counters shard, padded so adjacent
// lanes' hot counters do not share a cache line.
type laneCounters struct {
	Counters
	_ [40]byte
}

// Network binds hosts and stations to a scheduling surface (des.Sched):
// the sequential simulator via des.Solo, or a parallel lane kernel. Every
// event the network schedules names the acting host as its owner, which
// is what lets the parallel engines partition the event population.
type Network struct {
	sched    des.Sched
	lanes    int // counter/pool shard count; 1 for sequential runs
	cfg      Config
	shards   [][]Host // sharded flat host arena, indexed by HostID
	shift    uint     // log2 of every shard's capacity, fixed at NewSched
	numHosts int
	stations []Station  // flat, fixed at NumMSS
	homes    []MSSID    // home-agent directory: host -> believed current MSS
	busy     []des.Time // per-station wireless channel busy-until (contention model)
	loss     lossSource // variate source for the loss model; nil when disabled
	hooks    Hooks
	counters []laneCounters // sharded by executing lane, merged in Counters()
	nextMsg  atomic.Uint64

	// Routing trampolines for the pooled-event fast path: one long-lived
	// handler per leg instead of one closure per message hop. The moving
	// state (the next station) rides in Message.route.
	arriveFn   des.ArgHandler
	downlinkFn des.ArgHandler

	// msgFree recycles Message structs returned via Recycle (an explicit
	// caller opt-in; the network never recycles on its own). One free list
	// per lane: Send pops on the sender's lane, Recycle pushes on the
	// receiver's — each list is only ever touched by its lane's goroutine.
	msgFree [][]*Message

	// poolProbe, when attached, counts message-pool traffic per lane. Each
	// shard follows the same single-writer discipline as msgFree: Send
	// writes the sender's shard, Recycle the receiver's.
	poolProbe []probe.PoolProbe
}

// SetPoolProbe attaches per-lane message-pool probes (index = executing
// lane; len must be the network's lane count) or detaches them with nil.
// Probes live outside Counters so the merged counter struct — which tests
// compare wholesale — is unchanged whether or not the observatory is on.
func (n *Network) SetPoolProbe(p []probe.PoolProbe) {
	if p != nil && len(p) != n.lanes {
		panic(fmt.Sprintf("mobile: pool probe shards = %d, lanes = %d", len(p), n.lanes))
	}
	n.poolProbe = p
}

// New creates a network in which host i starts connected to station
// i mod r (a deterministic initial placement; callers can move hosts
// before starting the clock). It binds the network to a sequential
// simulator; parallel engines use NewSched.
func New(sim *des.Simulator, cfg Config, hooks Hooks) (*Network, error) {
	return NewSched(des.Solo(sim), 1, cfg, hooks)
}

// NewSched creates a network driven through an arbitrary scheduling
// surface, sharding its counters and pools across lanes goroutines
// (hosts map to shards by id % lanes, matching the parallel kernel's
// owner-to-lane mapping). The contention and loss models mutate
// cross-cell shared state on the message hot path and are therefore
// sequential-only.
func NewSched(sched des.Sched, lanes int, cfg Config, hooks Hooks) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lanes < 1 {
		return nil, fmt.Errorf("mobile: lanes = %d, need >= 1", lanes)
	}
	if lanes > 1 && cfg.Contention {
		return nil, fmt.Errorf("mobile: contention model requires sequential execution (lanes = %d)", lanes)
	}
	if lanes > 1 && cfg.LossProbability > 0 {
		return nil, fmt.Errorf("mobile: loss model requires sequential execution (lanes = %d)", lanes)
	}
	n := &Network{sched: sched, lanes: lanes, cfg: cfg, hooks: hooks}
	n.counters = make([]laneCounters, lanes)
	n.msgFree = make([][]*Message, lanes)
	n.arriveFn = func(sim *des.Simulator, now des.Time, arg any) {
		m := arg.(*Message)
		n.arrive(m, MSSID(m.route), now)
	}
	n.downlinkFn = func(sim *des.Simulator, now des.Time, arg any) {
		n.finishDownlink(arg.(*Message), now)
	}
	n.busy = make([]des.Time, cfg.NumMSS)
	n.stations = make([]Station, cfg.NumMSS)
	for i := range n.stations {
		n.stations[i].ID = MSSID(i)
	}
	n.shift = uint(min(bits.Len(uint(cfg.NumHosts-1)), hostShardBits))
	n.homes = make([]MSSID, 0, cfg.NumHosts)
	for i := 0; i < cfg.NumHosts; i++ {
		at := MSSID(i % cfg.NumMSS)
		n.newHost(at)
		n.stations[at].members++
		n.homes = append(n.homes, at)
	}
	return n, nil
}

// newHost appends one host record to the arena, opening a fresh shard
// of the network's shard size when the last one is full, and returns its
// stable address. The new host's id is numHosts before the call; ids
// stay dense.
func (n *Network) newHost(at MSSID) *Host {
	id := HostID(n.numHosts)
	si := int(id) >> n.shift
	if si == len(n.shards) {
		n.shards = append(n.shards, make([]Host, 0, 1<<n.shift))
	}
	n.shards[si] = append(n.shards[si], Host{ID: id, mss: at, connected: true, lastMSS: at})
	n.numHosts++
	return &n.shards[si][len(n.shards[si])-1]
}

// host resolves a HostID to its arena record. Out-of-range ids panic on
// the shard indexing (caller bug), matching the old slice behavior.
func (n *Network) host(id HostID) *Host {
	return &n.shards[int(id)>>n.shift][int(id)&(1<<n.shift-1)]
}

// Host returns host id. It panics on out-of-range ids (caller bug).
func (n *Network) Host(id HostID) *Host { return n.host(id) }

// Station returns station id.
func (n *Network) Station(id MSSID) *Station { return &n.stations[id] }

// NumHosts returns the number of hosts.
func (n *Network) NumHosts() int { return n.numHosts }

// NumStations returns the number of stations.
func (n *Network) NumStations() int { return len(n.stations) }

// lane maps a host to its counter/pool shard, mirroring the parallel
// kernel's owner-to-lane mapping. Shard safety relies on callers passing
// the host whose timeline is executing, not an arbitrary peer.
func (n *Network) lane(id HostID) int { return int(id) % n.lanes }

// Counters returns a snapshot of the accumulated activity counters,
// merged across lane shards. Call it only while the lanes are quiescent
// (after the run, or from the world-stopped global phase).
func (n *Network) Counters() Counters {
	c := n.counters[0].Counters
	for i := 1; i < len(n.counters); i++ {
		s := &n.counters[i].Counters
		c.AppMessages += s.AppMessages
		c.CtrlMessages += s.CtrlMessages
		c.WirelessHops += s.WirelessHops
		c.WiredHops += s.WiredHops
		c.Forwards += s.Forwards
		c.Parked += s.Parked
		c.Delivered += s.Delivered
		c.LocationQueries += s.LocationQueries
		c.LocationUpdates += s.LocationUpdates
		c.ContentionDelay += s.ContentionDelay
		c.Retransmissions += s.Retransmissions
	}
	return c
}

// lossSource is the slice of randomness the loss model needs; satisfied
// by *rng.Source without importing it (keeping mobile free of policy
// dependencies).
type lossSource interface {
	Bernoulli(p float64) bool
}

// SetLossSource installs the variate source driving the loss model.
// Required before the first Send when Config.LossProbability > 0; the
// source should be a dedicated stream so losses do not perturb the
// workload's randomness.
func (n *Network) SetLossSource(src lossSource) { n.loss = src }

// Locate consults the home-agent directory for the believed station of
// host id, counting one location query. The paper's point (d): locating
// a roaming host has a cost. In parallel runs it may only be called from
// the world-stopped global phase (the marker loop); lane handlers go
// through locateFrom so the counter lands on the executing lane's shard.
func (n *Network) Locate(id HostID) MSSID { return n.locateFrom(id, 0) }

// locateFrom is Locate executing on lane's goroutine.
func (n *Network) locateFrom(id HostID, lane int) MSSID {
	n.counters[lane].LocationQueries++
	return n.homes[id]
}

// updateLocation records host id's new station at its home agent. Its
// callers (hand-off, reconnect, join) run under full exclusion — the
// directory write is never concurrent with Send's directory reads.
func (n *Network) updateLocation(id HostID, at MSSID) {
	c := &n.counters[n.lane(id)].Counters
	c.LocationUpdates++
	c.CtrlMessages++
	if n.homes[id] != at {
		// Crossing to the home agent costs a wired hop unless the host's
		// home is the station it just joined.
		if MSSID(int(id)%n.cfg.NumMSS) != at {
			c.WiredHops++
		}
	}
	n.homes[id] = at
}

// AddHost grows the computation by one mobile host, connected at station
// at — the paper's §2.1 point (f): "a good protocol should be able to
// add/remove processes from the application at the minimum cost". The
// join itself costs one control message (registration with the station);
// what it costs each checkpointing protocol is the interesting part,
// measured by experiment E16. The new host's id is returned; ids stay
// dense.
func (n *Network) AddHost(at MSSID) (HostID, error) {
	if at < 0 || int(at) >= len(n.stations) {
		return 0, fmt.Errorf("mobile: joining unknown station %d", at)
	}
	h := n.newHost(at)
	n.stations[at].members++
	n.homes = append(n.homes, at)
	c := &n.counters[0].Counters // joins run single-threaded (global phase)
	c.CtrlMessages++
	c.WirelessHops++
	c.LocationUpdates++
	return h.ID, nil
}
