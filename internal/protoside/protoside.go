// Package protoside is the protocol side of a run: the protocol slots,
// and everything one application event does to them — history row, hook,
// invariant checker, trace counts, MSS message log, decision log, cause
// tally, metrics. The protocols only observe message order, cell switches
// and disconnections (§5.1), so where that pattern comes from is not their
// business, and three worlds drive this one side: the simulator's
// generative engine from its network hooks and workload and its replay
// from a recorded schedule (both internal/sim), and the live goroutine
// cluster (internal/live) from its hosts' real operations. What differs
// between them arrives as values — the time of each event, the station a
// hand-off, reconnection or join arrives at, the message id — and nothing
// here calls back into the world or asks which one is calling. The side
// keeps its own clock (the time its latest event was passed), its own
// station table (Station), which is the mssOf of every protocol and where
// every checkpoint lands, and every message in flight, with its ordinal
// and piggybacks (Apply). The timeline is drawn after the run, from the
// history and the decision logs (RenderTimeline): no drawing runs in the
// event path.
package protoside

import (
	"fmt"
	"maps"
	"strconv"
	"sync"

	"mobickpt/internal/check"
	"mobickpt/internal/column"
	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// Side is the protocol side of one run.
type Side struct {
	// Slots holds the per-protocol state, in the world's protocol order.
	Slots []Slot

	// Hist is the run's one history (nil unless the world records one):
	// every mirrored event appends one row to it before any protocol sees
	// the event, whatever the slot count. A slot's Trace is a view of it,
	// and its delivery rows are what a slot's message log refers to. Its
	// position is what the decision logs stamp their entries with.
	Hist *trace.History

	// checks is whether any slot has an invariant checker (InitSlot).
	checks bool

	// now is the time of the event being mirrored, as Apply was passed
	// it: 0 before the first, for the initial checkpoints.
	now des.Time

	// station is each host's current — while disconnected, last — station:
	// host i starts at station i mod stations, and only the hand-offs,
	// reconnections and joins Apply mirrors move it (Station).
	station []mobile.MSSID

	// actor is the host whose event is being mirrored (anyHost in Start and
	// in a marker round's start): the checkpointer refuses a checkpoint of
	// any other host. cause names the activity ("switch", "disconnect",
	// "marker", ...); the checkpointer attributes each checkpoint to it
	// (E19). causes tallies the checkpoints per protocol and cause.
	actor  mobile.HostID
	cause  string
	causes []map[string]int64

	// reg receives the metrics (nil unless the world passed a registry).
	reg *obs.Registry

	// msgs holds each message's record by its number (Apply), idle but
	// from its send to its delivery; rows their piggybacks, len(Slots) a
	// row, and free the delivered rows. sends is the next send's ordinal.
	msgs  column.Column[flight]
	rows  column.Column[any]
	free  []int32
	sends int32
}

// flight is one message's record: its ordinal — the number of messages
// sent before it — and the index in rows of its row's first entry. A
// message not in flight has ord -1 (idle).
type flight struct{ ord, row int32 }

var idle = flight{ord: -1}

// Slot is one protocol's share of the run: all protocols ride the same
// events, and everything that differs between them lives here. The world
// chooses the store and which of the optional records to keep; the side
// fills in the rest.
type Slot struct {
	Name  string // the protocol's own (Protocol.Name), set by InitSlot
	Proto protocol.Protocol
	Store *storage.Store
	Trace *trace.Trace   // a view of the side's Hist; nil without one
	MLog  *mlog.Log      // MSS message log; nil when logging is off
	Dec   *replaycmp.Log // decision log; nil unless the world records one
	Check *check.Runtime // invariant checker; nil unless the world asks for one

	// Counts is, per host, the checkpoints taken (incl. initial).
	Counts []int

	// The GC tallies (E11), kept by the one pruner of checkpoint records.
	PeakLive    int // max live records seen at GC ticks
	GCReclaimed int // total records pruned
	GCFrontier  int // highest stable index any GC pruned at

	// The latest log hand-off (Apply of a trace.Handoff): the frontier
	// the switching host's log was pruned at and how many references it
	// shipped (seq MLog.RetainedFrom first, read back through
	// MLog.EntryAt), for the live cluster's wire and station images.
	HandoffFrontier int
	Shipped         int

	JoinCtrl int64 // control messages spent on joins

	// Targets is where the latest marker round (Apply of a trace.Round)
	// sends its markers, as BeginSnapshot returned it, for the world.
	Targets []mobile.HostID

	frontier []int // Frontier's result, reused

	// flushes holds, for a slot that keeps both a message log and a
	// decision log, every stable write of the log in order: the one log
	// event the history does not hold.
	flushes []flushRow

	// Cached instruments (nil without a registry): the
	// sim_checkpoints_total counters by cause and the per-host
	// sim_forced_checkpoints_total counters.
	ckptByCause map[string]*obs.Counter
	forcedHost  []*obs.Counter
}

// Frontier is the one collection rule of every world: what an MSS may
// discard. It returns the slot's stable index over the current hosts and,
// per host, the ordinal of the earliest checkpoint a future recovery line
// can restore for it (recovery.Frontier; -1 keeps everything); keep is nil
// when the protocol's lines are not index cuts (TP, UNC, CL, PS) and
// nothing may go. keep is the slot's own slice, reused by the next call.
func (s *Slot) Frontier() (stable int, keep []int) {
	if !protocol.IndexBased(s.Name) {
		return 0, nil
	}
	n := len(s.Counts)
	stable = recovery.StableIndex(s.Store, n)
	s.frontier = s.frontier[:0]
	for h := range n {
		s.frontier = append(s.frontier, recovery.Frontier(s.Store, mobile.HostID(h), stable))
	}
	return stable, s.frontier
}

// RecoveryLine is the one recovery rule of every world (E8's, the live
// cluster's and the decision logs'): the consistent cut the computation
// restores after a crash of host failed, over n hosts, and the
// orphan-elimination steps it took beyond RecoverySeed's line. logged is
// the stable log's predicate (Logged), nil without one.
func (s *Slot) RecoveryLine(n int, failed mobile.HostID, logged recovery.LoggedFunc) (recovery.Cut, int) {
	return recovery.PropagateReplay(s.Trace, s.RecoverySeed(n, failed, logged != nil), logged)
}

// RecoverySeed is the line RecoveryLine propagates from. Without a log
// each protocol seeds from its own line: TP from the dependency vector of
// the failed host's latest checkpoint (§4.1; a slot without a TP instance
// has none), the index-based protocols from the same-index line through
// that checkpoint (§4.2), the others from the failed host alone. With a
// stable log only the failed host rolls back a priori: the logged
// deliveries keep every other host's state justified, and the
// replay-aware propagation handles the unlogged residue.
func (s *Slot) RecoverySeed(n int, failed mobile.HostID, logged bool) recovery.Cut {
	if !logged {
		if tp, ok := s.Proto.(*protocol.TP); ok {
			if meta, ok := tp.Meta(s.Store.LatestLive(failed)); ok {
				return recovery.VectorCut(s.Store, meta.Ckpt, n, failed)
			}
		} else if protocol.IndexBased(s.Name) {
			return recovery.LatestIndexCut(s.Store, n, failed)
		}
	}
	return recovery.FailureCut(s.Store, n, failed)
}

// Logged is the one definition of "stably logged" a recovery reads: the
// seq-th delivery to a host survives any rollback iff it reached lg's
// stable frontier. It is nil when lg is (nothing is logged).
func Logged(lg *mlog.Log) recovery.LoggedFunc {
	if lg == nil {
		return nil
	}
	return func(to mobile.HostID, seq int) bool { return seq < lg.StableBound(to) }
}

// FinishRecoveryLines fills the decision log's recovery-line matrix from
// the finished store and trace: row f is RecoveryLine's cut after a crash
// of host f, with End written as -1. The rows are the protocol's line
// without a log, whatever the slot logs, so a recording replayed without
// its log still compares clean. Call once, after the run.
func (s *Slot) FinishRecoveryLines() {
	n := s.Dec.NumHosts()
	s.Dec.RecoveryLines = make([][]int, n)
	for f := range n {
		cut, _ := s.RecoveryLine(n, mobile.HostID(f), nil)
		line := make([]int, n)
		for h, ord := range cut {
			if ord == recovery.End {
				ord = -1
			}
			line[h] = ord
		}
		s.Dec.RecoveryLines[f] = line
	}
}

// anyHost is the actor of the events no one host owns: Start, whose
// initial checkpoints cover every host, and a marker round's start.
const anyHost mobile.HostID = -1

// New sizes a protocol side for protos slots over hosts hosts and
// stations stations, recording into hist. hist and reg may be nil. The
// world fills the slots (InitSlot). Every slot's checkpointer closes over
// the side, so a world holds the side by pointer: what a finished run's
// results keep reachable through a protocol is the side, not the world
// around it.
func New(protos, hosts, stations int, hist *trace.History, reg *obs.Registry) *Side {
	p := &Side{
		Slots:   make([]Slot, protos),
		Hist:    hist,
		station: make([]mobile.MSSID, hosts),
		actor:   anyHost,
		causes:  make([]map[string]int64, protos),
		reg:     reg,
	}
	for h := range p.station {
		p.station[h] = mobile.MSSID(h % stations)
	}
	for i := range p.causes {
		p.causes[i] = make(map[string]int64)
	}
	return p
}

// Station is host h's current — while h is disconnected, last — station:
// where a checkpoint of h lands, and the mssOf every world hands its
// protocols (protocol.Constructor).
func (p *Side) Station(h mobile.HostID) mobile.MSSID { return p.station[h] }

// InitSlot fills slot i from s — store and the optional
// trace (a view of the side's history), message log and decision log the
// world chose — and builds the protocol, which build constructs around
// the slot's checkpointer and store and which names the slot; with checks
// it attaches an invariant checker to it.
func (p *Side) InitSlot(i int, s Slot, checks bool,
	build func(protocol.Checkpointer, *storage.Store) (protocol.Protocol, error)) error {
	s.Counts = make([]int, len(p.station))
	if p.reg != nil {
		s.ckptByCause = make(map[string]*obs.Counter)
	}
	p.Slots[i] = s
	proto, err := build(p.checkpointer(i), s.Store)
	if err != nil {
		return err
	}
	slot := &p.Slots[i]
	slot.Proto, slot.Name = proto, proto.Name()
	if checks {
		slot.Check = check.NewRuntime(slot.Name, proto, slot.Store, func() des.Time { return p.now })
		p.checks = true
	}
	return nil
}

// checkpointer builds the Checkpointer for protocol slot i: the store
// record on the host's station, the per-host count, the decision-log
// entry, the cause tally (E19) and, when on, the two checkpoint counter
// families. Inside an event of host a it takes checkpoints of a alone: a
// protocol that checkpoints another host there is a bug, and it panics
// naming both. Every world leans on that rule —
// the live cluster builds a host's images on that host's goroutine, and
// the lane engine applies one lane's records before the next's.
func (p *Side) checkpointer(i int) protocol.Checkpointer {
	s := &p.Slots[i]
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		if p.actor != anyHost && h != p.actor {
			panic(fmt.Sprintf("protoside: checkpoint of host %d inside an event of host %d", h, p.actor))
		}
		rec := s.Store.Take(h, p.station[h], index, kind, p.now)
		ordinal := s.Counts[h]
		s.Counts[h]++
		// The E19 classification is replaycmp's — the decision logs of the
		// live cluster and of its replay compare on it.
		key := replaycmp.CauseKey(kind, p.cause)
		p.causes[i][key]++
		if s.Dec != nil {
			s.Dec.RecordCheckpoint(int(h), replaycmp.Checkpoint{
				Seq: p.seq(), Ordinal: ordinal, Index: index, Kind: kind.String(), Cause: key,
			})
		}
		if p.reg != nil {
			c := s.ckptByCause[key]
			if c == nil {
				c = p.reg.Counter("sim_checkpoints_total", "proto", s.Name, "cause", key)
				s.ckptByCause[key] = c
			}
			c.Inc()
			if kind == storage.Forced {
				for int(h) >= len(s.forcedHost) {
					s.forcedHost = append(s.forcedHost, nil)
				}
				fc := s.forcedHost[h]
				if fc == nil {
					fc = p.reg.Counter("sim_forced_checkpoints_total",
						"proto", s.Name, "host", strconv.Itoa(int(h)))
					s.forcedHost[h] = fc
				}
				fc.Inc()
			}
		}
		return rec
	}
}

// seq is the history position of the event being mirrored (0 before the
// first, for the initial checkpoints): what the decision logs stamp their
// entries with. A world that keeps a decision log records a history.
func (p *Side) seq() uint64 { return uint64(max(p.Hist.Len()-1, 0)) }

// Start takes every protocol's initial checkpoints (cause "init", at
// time 0).
func (p *Side) Start() {
	n := len(p.station)
	p.now, p.actor, p.cause = 0, anyHost, "init"
	for i := range p.Slots {
		s := &p.Slots[i]
		s.Proto.Init()
		if s.Check != nil {
			s.Check.AfterInit(n)
		}
	}
}

// Apply, the side's one entry point, mirrors one event of the world at
// its time ev.At: its history row first, when the side keeps one, then its
// effect on every slot — on slot ev.Arg alone for a clocked kind — then
// the concerned slots' checkers (trace.Event tables each field). The Arg
// of a send or a delivery is the message's number in the side's table,
// which the world keeps dense: the engine and the live cluster pass the
// message's id, which they count from 0, a replay its send ordinal. A
// send numbers the message with the history's ordinal, writes 0 as its
// row's Arg, and returns its row of piggybacks, parallel to the slots,
// which the caller may encode or overwrite before the next event; with a
// delivered row free it allocates nothing. A delivery takes the row
// back, writes the ordinal into ev.Arg, and hands the protocols decoded —
// what a transport decoded off the wire — or, when that is nil, the row;
// a delivery of a message not in flight panics naming it. Other kinds
// take a nil decoded and return nil.
func (p *Side) Apply(ev trace.Event, decoded []any) []any {
	h := mobile.HostID(ev.Host)
	cause := ev.Kind.String()
	if ev.Kind == trace.Handoff {
		cause = "switch" // E19's name for what a hand-off's checkpoint answers
	}
	p.now, p.actor, p.cause = ev.At, h, cause
	// row is the message's own row of piggybacks; pb is what the protocols
	// see of them.
	var f flight
	var row, pb []any
	switch ev.Kind {
	case trace.Send:
		n := int(ev.Arg)
		for p.msgs.Len() <= n {
			p.msgs.Append(idle)
		}
		if n < 0 || p.msgs.At(n).ord >= 0 {
			panic(fmt.Sprintf("protoside: send of message %d as number %d, which is in flight", ev.Msg, n))
		}
		f = flight{p.sends, p.newRow()}
		p.msgs.Set(n, f)
		p.sends++
		row = p.row(f.row)
		ev.Arg, pb = 0, row
	case trace.Deliver:
		n := int(ev.Arg)
		f = idle
		if n >= 0 && n < p.msgs.Len() {
			f = p.msgs.At(n)
		}
		if f.ord < 0 {
			panic(fmt.Sprintf("protoside: delivery of message %d as number %d, which is not in flight", ev.Msg, n))
		}
		p.msgs.Set(n, idle)
		row = p.row(f.row)
		ev.Arg, pb = f.ord, decoded
		if pb == nil {
			pb = row
		}
	}
	if p.Hist != nil {
		p.Hist.Append(ev)
	}
	switch ev.Kind {
	case trace.Send:
		p.send(h, mobile.HostID(ev.Peer), pb)
	case trace.Deliver:
		p.deliver(h, mobile.HostID(ev.Peer), ev.Msg, pb)
	case trace.Handoff:
		p.handoff(h, mobile.MSSID(ev.Arg))
	case trace.Disconnect:
		p.disconnect(h)
	case trace.Reconnect:
		p.reconnect(h, mobile.MSSID(ev.Arg))
	case trace.Join:
		p.join(h, mobile.MSSID(ev.Arg))
	case trace.Marker:
		p.Slots[ev.Arg].Proto.(protocol.Initiator).OnMarker(h)
	case trace.Tick:
		p.Slots[ev.Arg].Proto.(protocol.Periodic).OnTick(h)
	case trace.Round:
		s := &p.Slots[ev.Arg]
		s.Targets = s.Proto.(protocol.Initiator).BeginSnapshot()
	default:
		panic(fmt.Sprintf("protoside: an event of kind %v", ev.Kind))
	}
	if p.checks {
		for i := range p.Slots {
			s := &p.Slots[i]
			if s.Check == nil || ev.Kind.Clocked() && int(ev.Arg) != i {
				continue
			}
			var v any
			if pb != nil {
				v = pb[i]
			}
			s.Check.After(ev, v)
		}
	}
	if ev.Kind == trace.Deliver {
		clear(row)
		p.free = append(p.free, f.row)
		return nil
	}
	return row
}

// newRow returns a free row: a delivered message's, else a new one.
func (p *Side) newRow() int32 {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	p.rows.Extend(len(p.Slots))
	return int32(p.rows.Len() - len(p.Slots))
}

// row is row r's piggybacks, a slot each.
func (p *Side) row(r int32) []any {
	chunk, start := p.rows.ChunkOf(int(r))
	return chunk[int(r)-start:][:len(p.Slots):len(p.Slots)]
}

// InFlight returns, in ascending order, the numbers (Apply) of the
// messages sent and not yet delivered: in the engine and the live cluster
// their ids, the history's (trace.History.InFlight); in a replay their
// send ordinals.
func (p *Side) InFlight() []uint64 {
	var ids []uint64
	for id := range p.msgs.Len() {
		if p.msgs.At(id).ord >= 0 {
			ids = append(ids, uint64(id))
		}
	}
	return ids
}

// FinishTraffic, after the world's last event, drops the rows of the
// messages in flight and keeps their 8 B records, which InFlight reads: a
// finished run's result holds the side, and a short run can end with most
// messages in flight (TestHeldResultHeap's: 84 000 of 87 000).
func (p *Side) FinishTraffic() {
	p.rows, p.free = column.Column[any]{}, nil
}

// send runs every protocol's OnSend of a message from → to — leaving the
// piggybacks in pb — and records every trace's send-side count, the
// sender's post-OnSend position.
func (p *Side) send(from, to mobile.HostID, pb []any) {
	for i := range p.Slots {
		s := &p.Slots[i]
		pb[i] = s.Proto.OnSend(from, to)
		if s.Trace != nil {
			s.Trace.CountSend(s.Counts[from])
		}
	}
}

// deliver dispatches message id, delivered to h at its station, to every
// protocol and records the receiver-side positions — trace, message log,
// decision log — after any forced checkpoint.
func (p *Side) deliver(h, from mobile.HostID, id uint64, pb []any) {
	now := p.now
	for i := range p.Slots {
		s := &p.Slots[i]
		s.Proto.OnDeliver(h, from, pb[i])
		if s.Trace != nil {
			s.Trace.CountDeliver(s.Counts[h])
		}
		if s.MLog != nil {
			// The log refers to the delivery row recorded above and keeps
			// the post-forced-checkpoint receiver position beside it, the
			// same position the trace records; pessimistic mode makes it
			// stable before the application proceeds.
			mark := s.flushMark()
			s.MLog.Append(h, from, id, s.Counts[h], now, p.station[h])
			s.noteFlush(mark, p.seq(), h)
		}
		if s.Dec != nil {
			// Logged after everything the delivery induced: the decision
			// logs compare positionally.
			s.Dec.RecordDelivery(int(h), replaycmp.Delivery{
				Seq: p.seq(), Msg: id, From: int(from),
				Piggyback: replaycmp.Fingerprint(pb[i]), RecvCount: s.Counts[h],
			})
		}
	}
}

// handoff moves host h from its station to station to. The move is
// committed first: the basic checkpoint it induces lands on the new
// station.
func (p *Side) handoff(h mobile.HostID, to mobile.MSSID) {
	p.station[h] = to
	for i := range p.Slots {
		s := &p.Slots[i]
		s.Proto.OnCellSwitch(h, to)
		if s.MLog != nil {
			// The log follows its host like the checkpoints do (§2.2's
			// transfer), less what no recovery replays: one prune, every world.
			s.HandoffFrontier = -1
			if _, keep := s.Frontier(); keep != nil {
				s.HandoffFrontier = keep[h]
			}
			s.MLog.PruneDelivered(h, s.HandoffFrontier)
			mark := s.flushMark()
			s.Shipped = len(s.MLog.Handoff(h, to))
			s.noteFlush(mark, p.seq(), h)
		}
	}
}

// disconnect detaches host h from its station, which stays its station
// until it reconnects.
func (p *Side) disconnect(h mobile.HostID) {
	for i := range p.Slots {
		s := &p.Slots[i]
		s.Proto.OnDisconnect(h)
		if s.MLog != nil {
			// The disconnection checkpoint makes the host's state
			// durable; the log suffix writes through with it.
			mark := s.flushMark()
			s.MLog.Flush(h)
			s.noteFlush(mark, p.seq(), h)
		}
	}
}

// reconnect reattaches host h at station at.
func (p *Side) reconnect(h mobile.HostID, at mobile.MSSID) {
	p.station[h] = at
	for i := range p.Slots {
		p.Slots[i].Proto.OnReconnect(h, at)
	}
}

// join admits host id, the next one, joining at station at, into every
// protocol.
func (p *Side) join(id mobile.HostID, at mobile.MSSID) {
	p.station = append(p.station, at)
	for i := range p.Slots {
		s := &p.Slots[i]
		s.Counts = append(s.Counts, 0)
		if s.Dec != nil {
			s.Dec.AddHost()
		}
		s.JoinCtrl += s.Proto.OnJoin(id)
	}
}

// Causes is slot i's cause tally (E19): checkpoints by CauseKey, initial
// ones included.
func (p *Side) Causes(i int) map[string]int64 { return maps.Clone(p.causes[i]) }

// Instrument registers the per-protocol sim_* families and each message
// log's mlog_* families on the side's registry, under the same names in
// every world. All are sampled — read from the slots' own tallies at
// snapshot time — so registering costs the hot paths nothing; the two
// counter families the checkpointer increments directly are cached per
// slot. A world that is snapshotted while it runs passes the lock its
// protocol callbacks run under, and the readers take it; nil means
// snapshots only happen at quiescence.
func (p *Side) Instrument(lock sync.Locker) {
	for _, h := range [][2]string{
		{"sim_checkpoints_total", "Checkpoints taken, by protocol and causal event (the paper's N_tot split)."},
		{"sim_forced_checkpoints_total", "Forced checkpoints, by protocol and host."},
		{"sim_piggyback_bytes_total", "Protocol control bytes piggybacked on application messages."},
		{"sim_gc_reclaimed_total", "Checkpoint records reclaimed by garbage collection."},
		{"sim_gc_peak_live_records", "Peak simultaneously-live checkpoint records."},
		{"sim_join_ctrl_messages_total", "Control messages spent integrating joining hosts."},
		{"sim_ctrl_messages_total", "Protocol control messages (initiator-based protocols)."},
		{"sim_tp_vector_copies_total", "TP sends that took a new O(1) view of the sender's vectors (they had changed since its previous send); no vector is copied."},
		{"sim_tp_snapshot_reuses_total", "TP sends that shared the view the sender's previous send took."},
	} {
		p.reg.Help(h[0], h[1])
	}
	counter := func(name string, read func() int64, kv ...string) {
		p.reg.CounterFunc(name, obs.Locked(lock, read), kv...)
	}
	for i := range p.Slots {
		s := &p.Slots[i]
		counter("sim_piggyback_bytes_total",
			func() int64 { return s.Proto.PiggybackBytes() }, "proto", s.Name)
		counter("sim_gc_reclaimed_total",
			func() int64 { return int64(s.GCReclaimed) }, "proto", s.Name)
		p.reg.GaugeFunc("sim_gc_peak_live_records",
			obs.Locked(lock, func() int64 { return int64(s.PeakLive) }), "proto", s.Name)
		counter("sim_join_ctrl_messages_total",
			func() int64 { return s.JoinCtrl }, "proto", s.Name)
		if init, ok := s.Proto.(protocol.Initiator); ok {
			counter("sim_ctrl_messages_total",
				func() int64 { return init.ControlMessages() }, "proto", s.Name)
		}
		if tp, ok := s.Proto.(*protocol.TP); ok {
			// How often a sender's vectors change between its sends
			// (E26): sends that took a new view versus sends that
			// shared the previous one.
			counter("sim_tp_vector_copies_total",
				func() int64 { c, _ := tp.SnapshotStats(); return c }, "proto", s.Name)
			counter("sim_tp_snapshot_reuses_total",
				func() int64 { _, r := tp.SnapshotStats(); return r }, "proto", s.Name)
		}
		if s.MLog != nil {
			s.MLog.Instrument(p.reg, lock, "proto", s.Name)
		}
	}
}

// FinishChecks runs the end-of-run reconciliation of the slots' invariant
// checkers (InitSlot with checks) — the slots' tallies vs stable-storage
// chains, one initial checkpoint per (possibly joined) host — plus the
// post-run recovery-line sweep over recorded traces. It returns a
// check.Violations error when any invariant broke.
func (p *Side) FinishChecks(finalHosts int) error {
	var all check.Violations
	for i := range p.Slots {
		s := &p.Slots[i]
		all = append(all, s.Check.Finish(s.Counts)...)
		if initial, _, _ := s.Store.CountByKind(-1); initial != finalHosts {
			all = append(all, &check.Violation{
				Protocol: s.Name, Time: p.now, Rule: "reconcile",
				Detail: fmt.Sprintf("%d initial checkpoints for %d hosts", initial, finalHosts),
			})
		}
		if s.Trace == nil {
			continue
		}
		if s.MLog != nil {
			all = append(all, check.LogReconciliation(s.Name, s.MLog, s.Trace, finalHosts)...)
		}
		if protocol.IndexBased(s.Name) {
			// Lines below the highest frontier any GC pass pruned at lost
			// members by design and are exempt; everything above it must
			// still be consistent (with dynamic joins the end-of-run stable
			// index can sit below that frontier, so the frontier is tracked
			// per pass, not recomputed here).
			all = append(all, check.RecoveryLines(s.Name, s.Store, s.Trace, finalHosts, s.GCFrontier)...)
		}
	}
	if len(all) > 0 {
		return all
	}
	return nil
}
