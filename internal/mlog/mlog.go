// Package mlog implements MSS-resident message logging, the standard
// remedy for the undone-computation problem the paper's §6 defers: the
// support stations keep, on stable storage, a log of every application
// message delivered to each mobile host, keyed by host and delivery
// order. After a rollback a recovering host replays the logged messages
// past its restored checkpoint; under the piecewise-deterministic
// assumption the replay reconstructs the computation up to the first
// delivery that is not stably logged, shrinking both the computation a
// failure undoes and the rollback's propagation (a receive whose message
// survives in a stable log is no longer an orphan-producing event — the
// receiver's state remains justified by stable storage even when the
// send is undone).
//
// Two disciplines are provided:
//
//   - Pessimistic (log-before-deliver): every entry is synchronously
//     flushed to the MSS stable storage before the application proceeds.
//     Nothing delivered is ever lost, at the price of one stable write
//     per message.
//   - Optimistic (batched flush): entries accumulate in the MSS's
//     volatile buffer and reach stable storage in batches of FlushBatch.
//     A failure loses the unflushed suffix, bounding the stable-write
//     rate by 1/FlushBatch per message.
//
// The log follows its host: a hand-off transfers the retained stable
// entries to the new station over the wired network (write-through — the
// transfer flushes any pending suffix first), mirroring the checkpoint
// transfer of §2.2. Garbage collection is tied to the recovery-line
// frontier of internal/recovery: an entry whose receive precedes every
// checkpoint a future recovery line can restore is unreplayable by
// construction and is discarded.
//
// The log keeps references, not copies. Every field of a logged delivery
// but one is already a row of the run's trace.History (who sent which
// message to whom, and when), so a log holds, per host and per delivery,
// that row's position and the receiver's checkpoint count after the
// delivery: eight bytes. Entry values are built only where something
// reads them.
package mlog

import (
	"fmt"
	"sort"
	"sync"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/trace"
)

// Mode selects the logging discipline.
type Mode int

const (
	// Off disables message logging.
	Off Mode = iota
	// Pessimistic flushes every entry to stable storage before the
	// delivery is handed to the application.
	Pessimistic
	// Optimistic buffers entries in MSS volatile memory and flushes them
	// in batches; a failure loses the unflushed suffix.
	Optimistic
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Pessimistic:
		return "pessimistic"
	case Optimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a flag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return Off, nil
	case "pessimistic":
		return Pessimistic, nil
	case "optimistic":
		return Optimistic, nil
	default:
		return Off, fmt.Errorf("mlog: unknown mode %q (off, pessimistic, optimistic)", s)
	}
}

// Config parameterizes a log.
type Config struct {
	Mode Mode
	// FlushBatch is the optimistic flush threshold: a host's pending
	// entries are written to stable storage once this many accumulate.
	// Ignored by Pessimistic (every entry flushes alone).
	FlushBatch int
	// EntryBytes is the accounted stable-storage size of one log entry
	// (message identity, positions, payload reference).
	EntryBytes int64
}

// DefaultConfig returns the default parameters for mode: batches of 8
// entries, 64 bytes per entry.
func DefaultConfig(mode Mode) Config {
	return Config{Mode: mode, FlushBatch: 8, EntryBytes: 64}
}

// Validate reports a descriptive error for bad configurations.
func (c Config) Validate() error {
	switch {
	case c.Mode != Pessimistic && c.Mode != Optimistic:
		return fmt.Errorf("mlog: mode %v is not a logging mode", c.Mode)
	case c.Mode == Optimistic && c.FlushBatch <= 0:
		return fmt.Errorf("mlog: FlushBatch = %d, need > 0 for optimistic logging", c.FlushBatch)
	case c.EntryBytes <= 0:
		return fmt.Errorf("mlog: EntryBytes = %d, need > 0", c.EntryBytes)
	}
	return nil
}

// Entry is one logged delivery, as EntryAt and ReplayFrom build it from
// the delivery's Ref and History row.
type Entry struct {
	Host mobile.HostID
	// Seq is the per-host delivery ordinal, 0-based: the Seq-th message
	// delivered to Host. Replay re-delivers entries in Seq order.
	Seq   int
	MsgID uint64
	From  mobile.HostID
	// RecvCount is the number of checkpoints Host had taken when the
	// message was delivered (after any forced checkpoint), the same
	// position trace.MessageEvent records. Restoring checkpoint ordinal x
	// undoes this receive iff RecvCount > x.
	RecvCount int
	At        des.Time
}

// Ref is one logged delivery as the log keeps it: the History row that
// recorded the delivery and the receiver's position after it
// (Entry.RecvCount), the one field of an Entry no row holds.
type Ref struct{ row, recv int32 }

// Counters aggregates the log's stable-storage and transfer activity.
type Counters struct {
	Appended       int64 `json:"appended"`        // entries logged
	Flushes        int64 `json:"flushes"`         // stable-write operations
	FlushedEntries int64 `json:"flushed_entries"` // entries made stable
	StableBytes    int64 `json:"stable_bytes"`    // volume written to stable storage
	Handoffs       int64 `json:"handoffs"`        // log transfers between stations
	TransferBytes  int64 `json:"transfer_bytes"`  // volume shipped over the wired network
	Pruned         int64 `json:"pruned"`          // entries discarded by garbage collection
	// PeakStableEntries is the largest number of retained stable entries
	// across all hosts at any point.
	PeakStableEntries int64 `json:"peak_stable_entries"`
}

// hostLog is one host's log state: one array of references and three
// frontiers over it.
//
// Like Log itself the struct is externally serialized (see the Log
// contract); every field states so explicitly for guardlint.
type hostLog struct {
	//guard:none externally serialized by the Log's owner
	host mobile.HostID

	// refs holds the retained deliveries in Seq order, seq minSeq first:
	// the stable ones, then (below nextSeq) the pending ones, which
	// Optimistic buffers in MSS volatile memory. A flush moves stableSeq
	// and a prune reslices; only Append writes, past the end of every
	// slice Handoff returned.
	//
	//guard:none externally serialized by the Log's owner
	refs []Ref

	// stableSeq is the stable frontier: every entry with Seq < stableSeq
	// has reached stable storage (possibly pruned since). Monotonic.
	//
	//guard:none externally serialized by the Log's owner
	stableSeq int

	// minSeq is the GC frontier: entries with Seq < minSeq were pruned.
	//
	//guard:none externally serialized by the Log's owner
	minSeq int

	// mss is the station holding the stable log.
	//
	//guard:none externally serialized by the Log's owner
	mss mobile.MSSID
}

// nextSeq is the seq the next Append receives.
func (hl *hostLog) nextSeq() int { return hl.minSeq + len(hl.refs) }

// stable returns the retained stable references.
func (hl *hostLog) stable() []Ref { return hl.refs[:hl.stableSeq-hl.minSeq] }

// Log is the MSS-resident message log of one computation (all hosts).
//
// The log carries no lock of its own: every caller already serializes
// access (the sim engine is single-threaded per world; the live cluster
// mutates its log under Cluster.mu). The //guard:none annotations make
// that external contract machine-visible — a future field added without
// one fails guardlint's completeness check.
type Log struct {
	//guard:none immutable after New
	cfg Config

	// hist holds the rows the references name: the run's history, which
	// its writer grows (Open), or the log's own (New).
	//
	//guard:none immutable after New; its rows grow under the owner's serialization
	hist *trace.History

	// own reports a history of the log's own, which Append writes.
	//
	//guard:none immutable after New
	own bool

	// hosts is indexed by HostID (ids are dense); slots stay nil until
	// the host's first delivery is logged. A flat slice instead of a map
	// keeps the per-delivery Append path hash-free at n=1e6.
	//
	//guard:none externally serialized (sim: single-threaded; live: under Cluster.mu)
	hosts []*hostLog

	// retained is the current stable entries across hosts.
	//
	//guard:none externally serialized (sim: single-threaded; live: under Cluster.mu)
	retained int64

	//guard:none externally serialized (sim: single-threaded; live: under Cluster.mu)
	counters Counters

	// OnFlush, when non-nil, observes every stable write: the host whose
	// entries were flushed and the number of entries in the write. The
	// simulation's timeline tracer uses it; the hook must not call back
	// into the log.
	//
	//guard:none set before use, called only from the serialized mutation paths
	OnFlush func(h mobile.HostID, entries int)
}

// New creates an empty log that records every delivery it is handed in a
// history of its own. cfg.Mode must be Pessimistic or Optimistic.
func New(cfg Config) (*Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Log{cfg: cfg, hist: trace.NewHistory(0, 0), own: true}, nil
}

// Open builds the log a world's logging mode asks for, over the world's
// history hist — the default configuration of mode, the same in every
// world, since the optimistic flush batch decides which deliveries a
// replay-aware recovery line may keep — or returns nil when mode is Off.
func Open(mode Mode, hist *trace.History) (*Log, error) {
	if mode == Off {
		return nil, nil
	}
	cfg := DefaultConfig(mode)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hist == nil {
		return nil, fmt.Errorf("mlog: a %v log needs the run's history", mode)
	}
	return &Log{cfg: cfg, hist: hist}, nil
}

// Mode returns the logging discipline.
func (l *Log) Mode() Mode { return l.cfg.Mode }

// Counters returns a snapshot of the accumulated activity.
func (l *Log) Counters() Counters { return l.counters }

func (l *Log) host(h mobile.HostID) *hostLog {
	for int(h) >= len(l.hosts) {
		l.hosts = append(l.hosts, nil)
	}
	hl := l.hosts[h]
	if hl == nil {
		hl = &hostLog{host: h, mss: mobile.NoMSS}
		l.hosts[h] = hl
	}
	return hl
}

// peek returns host h's log without materializing one.
func (l *Log) peek(h mobile.HostID) *hostLog {
	if h < 0 || int(h) >= len(l.hosts) {
		return nil
	}
	return l.hosts[h]
}

// Instrument registers the log's activity with reg as sampled
// observability instruments (internal/obs), labeled with the given
// key/value pairs (e.g. "proto", "TP"). The counters are read only at
// snapshot time, so the logging hot path is untouched. mu is the lock
// the log's owner serializes it with, taken around every sampled read so
// a registry may be snapshotted while the log is in use (the live
// cluster's protocol side passes its own); nil when snapshots only happen
// while the log is quiescent (the simulator).
func (l *Log) Instrument(reg *obs.Registry, mu sync.Locker, kv ...string) {
	if reg == nil {
		return
	}
	for _, in := range []struct {
		name, help string
		read       func() int64
	}{
		{"mlog_appended_total", "Message deliveries appended to the MSS log.", func() int64 { return l.counters.Appended }},
		{"mlog_flushes_total", "Log flushes to stable storage.", func() int64 { return l.counters.Flushes }},
		{"mlog_flushed_entries_total", "Entries made stable by flushes.", func() int64 { return l.counters.FlushedEntries }},
		{"mlog_stable_bytes_total", "Bytes written to stable log storage.", func() int64 { return l.counters.StableBytes }},
		{"mlog_handoffs_total", "Log segments handed off between stations on cell switch.", func() int64 { return l.counters.Handoffs }},
		{"mlog_transfer_bytes_total", "Bytes shipped between stations by log handoffs.", func() int64 { return l.counters.TransferBytes }},
		{"mlog_pruned_total", "Log entries pruned after checkpoint garbage collection.", func() int64 { return l.counters.Pruned }},
	} {
		reg.Help(in.name, in.help)
		reg.CounterFunc(in.name, obs.Locked(mu, in.read), kv...)
	}
	reg.Help("mlog_retained_entries", "Log entries currently retained across all hosts.")
	reg.GaugeFunc("mlog_retained_entries", obs.Locked(mu, func() int64 { return l.retained }), kv...)
}

// Append logs one delivery to host h at station mss: message msgID from
// host from, delivered at time at, after which h had taken recvCount
// checkpoints. A log over a world's history finds that delivery as the
// history's newest row, which the world records first, and panics naming
// both when the newest row is anything else; a log made by New records
// the row itself. Pessimistic mode flushes the entry immediately;
// Optimistic buffers it and flushes once FlushBatch entries are pending.
func (l *Log) Append(h, from mobile.HostID, msgID uint64, recvCount int, at des.Time, mss mobile.MSSID) {
	want := trace.Event{Kind: trace.Deliver, At: at, Host: int32(h), Peer: int32(from), Msg: msgID, Flow: msgID}
	if l.own {
		want.Arg = l.hist.Append(trace.Event{Kind: trace.Send, At: at, Host: int32(from), Peer: int32(h), Msg: msgID})
		l.hist.Append(want)
	}
	row := l.hist.Len() - 1
	var got trace.Event
	if row >= 0 {
		got = l.hist.Row(row)
		want.Arg = got.Arg // the message's ordinal is the history's to number
	}
	if got != want {
		panic(foreign(row, got, want))
	}
	hl := l.host(h)
	if hl.mss == mobile.NoMSS {
		hl.mss = mss
	}
	if len(hl.refs) == cap(hl.refs) {
		// Double: the arrays a host's appends allocate then sum to under
		// twice the last one's capacity (append's own policy grows a long
		// array by about 1.25x, and its arrays sum to about five times).
		grown := make([]Ref, len(hl.refs), max(2*cap(hl.refs), 16))
		copy(grown, hl.refs)
		hl.refs = grown
	}
	hl.refs = append(hl.refs, Ref{row: int32(row), recv: int32(recvCount)})
	l.counters.Appended++
	if l.cfg.Mode == Pessimistic || hl.nextSeq()-hl.stableSeq >= l.cfg.FlushBatch {
		l.flush(hl)
	}
}

// foreign describes an Append whose delivery, want, is not the
// history's newest row, got (row -1: the history is empty).
func foreign(row int, got, want trace.Event) string {
	newest := "the history is empty"
	if row >= 0 {
		newest = fmt.Sprintf("its newest row %d is a %s of msg %d by host %d (peer %d) at %v",
			row, got.Kind, got.Msg, got.Host, got.Peer, got.At)
	}
	return fmt.Sprintf("mlog: appending the delivery of msg %d from host %d to host %d at %v, but %s",
		want.Msg, want.Peer, want.Host, want.At, newest)
}

// flush moves hl's pending entries to stable storage as one write.
func (l *Log) flush(hl *hostLog) {
	n := hl.nextSeq() - hl.stableSeq
	if n == 0 {
		return
	}
	hl.stableSeq += n
	l.counters.Flushes++
	l.counters.FlushedEntries += int64(n)
	l.counters.StableBytes += int64(n) * l.cfg.EntryBytes
	l.retained += int64(n)
	if l.retained > l.counters.PeakStableEntries {
		l.counters.PeakStableEntries = l.retained
	}
	if l.OnFlush != nil {
		l.OnFlush(hl.host, n)
	}
}

// Flush forces host h's pending entries to stable storage (the
// environment calls it when a delivery gap makes the suffix durable
// anyway, e.g. at disconnection).
func (l *Log) Flush(h mobile.HostID) {
	if hl := l.peek(h); hl != nil {
		l.flush(hl)
	}
}

// Handoff transfers host h's log to station to, following a cell switch.
// The transfer writes through (pending entries flush first) and ships
// the retained stable entries over the wired network. It returns their
// references, seq RetainedFrom(h) first, without copying them (EntryAt
// builds the entries); the log never writes into the slice again.
func (l *Log) Handoff(h mobile.HostID, to mobile.MSSID) []Ref {
	hl := l.host(h)
	l.flush(hl)
	if hl.mss == to {
		return nil
	}
	hl.mss = to
	l.counters.Handoffs++
	l.counters.TransferBytes += int64(len(hl.refs)) * l.cfg.EntryBytes
	return hl.refs[:len(hl.refs):len(hl.refs)]
}

// Holder returns the station holding host h's stable log, or NoMSS.
func (l *Log) Holder(h mobile.HostID) mobile.MSSID {
	if hl := l.peek(h); hl != nil {
		return hl.mss
	}
	return mobile.NoMSS
}

// StableBound returns host h's stable frontier: every delivery with
// Seq < StableBound survives a failure on MSS stable storage. Under
// Pessimistic logging this equals AppendedCount.
func (l *Log) StableBound(h mobile.HostID) int {
	if hl := l.peek(h); hl != nil {
		return hl.stableSeq
	}
	return 0
}

// AppendedCount returns the number of deliveries ever logged for host h.
func (l *Log) AppendedCount(h mobile.HostID) int {
	if hl := l.peek(h); hl != nil {
		return hl.nextSeq()
	}
	return 0
}

// PendingCount returns host h's buffered (volatile) entries.
func (l *Log) PendingCount(h mobile.HostID) int {
	if hl := l.peek(h); hl != nil {
		return hl.nextSeq() - hl.stableSeq
	}
	return 0
}

// RetainedFrom returns the seq of host h's earliest retained stable
// entry (entries below it were pruned by garbage collection).
func (l *Log) RetainedFrom(h mobile.HostID) int {
	if hl := l.peek(h); hl != nil {
		return hl.minSeq
	}
	return 0
}

// EntryAt builds host h's entry with the given seq — stable or still
// pending — and reports false when it was pruned or never logged.
func (l *Log) EntryAt(h mobile.HostID, seq int) (Entry, bool) {
	hl := l.peek(h)
	if hl == nil || seq < hl.minSeq || seq >= hl.nextSeq() {
		return Entry{}, false
	}
	return l.entry(hl, seq), true
}

// entry builds hl's retained entry seq from its reference and row.
func (l *Log) entry(hl *hostLog, seq int) Entry {
	r := hl.refs[seq-hl.minSeq]
	ev := l.hist.Row(int(r.row))
	return Entry{
		Host: hl.host, Seq: seq, MsgID: ev.Msg, From: mobile.HostID(ev.Peer),
		RecvCount: int(r.recv), At: ev.At,
	}
}

// ReplayFrom builds host h's stable entries whose receive a restore to
// checkpoint ordinal restored undoes (RecvCount > restored), in delivery
// order — exactly the messages a recovering host re-delivers. Entries
// pruned by garbage collection never qualify: pruning requires that no
// future recovery line restores below them.
func (l *Log) ReplayFrom(h mobile.HostID, restored int) []Entry {
	hl := l.peek(h)
	if hl == nil {
		return nil
	}
	first, end := hl.firstAbove(restored), hl.stableSeq-hl.minSeq
	out := make([]Entry, 0, end-first)
	for i := first; i < end; i++ {
		out = append(out, l.entry(hl, hl.minSeq+i))
	}
	return out
}

// firstAbove returns the index of hl's first stable reference with
// RecvCount > x (the stable count when there is none). Stable entries are
// in ascending Seq order with nondecreasing RecvCount, so the entries
// at or below x are a prefix and a binary search finds its end.
func (hl *hostLog) firstAbove(x int) int {
	stable := hl.stable()
	return sort.Search(len(stable), func(i int) bool { return int(stable[i].recv) > x })
}

// PruneDelivered garbage-collects host h's stable entries whose receive
// no future recovery line can undo: entries with RecvCount <= frontier,
// where frontier is the ordinal of the earliest checkpoint any future
// line restores for h (protoside.Slot.Frontier; -1 discards nothing).
// Per-host RecvCount is nondecreasing, so this removes a prefix, in place.
// It returns the number of entries discarded.
func (l *Log) PruneDelivered(h mobile.HostID, frontier int) int {
	hl := l.peek(h)
	if hl == nil {
		return 0
	}
	n := hl.firstAbove(frontier)
	if n == 0 {
		return 0
	}
	hl.refs = hl.refs[n:]
	hl.minSeq += n
	l.retained -= int64(n)
	l.counters.Pruned += int64(n)
	return n
}

// StableEntries returns the retained stable entries across all hosts.
func (l *Log) StableEntries() int64 { return l.retained }
