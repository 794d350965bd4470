package protocol

import (
	"math"
	"slices"

	"mobickpt/internal/column"
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
	"mobickpt/internal/vclock"
)

// Phase is TP's per-host mode bit.
type Phase int

const (
	// RECV: the host has not sent since its last checkpoint (or delivery).
	RECV Phase = iota
	// SEND: the host has sent at least one message; receiving now would
	// create a state that is both "after a send" and "after a receive",
	// which Russell's rule forbids inside one checkpoint interval.
	SEND
)

func (p Phase) String() string {
	if p == SEND {
		return "SEND"
	}
	return "RECV"
}

// TPPiggyback is the control information the TP protocol attaches to
// every application message, in dense form: the sender's transitive
// dependency vectors over checkpoint intervals (Ckpt) and over checkpoint
// locations (Loc). Both have one entry per host, which is why the paper
// concludes TP "does not scale while changing the number of hosts". It is
// what travels on the wire and what recovery reads; inside the simulator
// a message carries a *TPView of the same vectors instead.
type TPPiggyback struct {
	Ckpt vclock.Vector
	Loc  vclock.Vector
}

// tpChange is one change-log record: CKPT[idx] of a host's state rose to
// ckpt. Both fields are 32 bits wide — the vectors, their frames and
// their change logs are what a run retains per host and per checkpoint.
type tpChange struct{ idx, ckpt int32 }

// newTPState is a host's state before it depends on anything: width
// entries of -1. n of these are most of TP's set-up, so the entries are
// filled by doubling copies: a store per entry ran a tenth slower or
// faster with where the linker happened to place its loop.
func newTPState(width int) []int32 {
	vec := make([]int32, width)
	if width > 0 {
		vec[0] = -1
		for n := 1; n < width; n *= 2 {
			copy(vec[n:], vec[:n])
		}
	}
	return vec
}

// tpStations is the station table of one host: entry k is the MSS its
// k-th checkpoint was taken at. It is all TP keeps of LOC — LOC[j] is
// always the station of the CKPT[j]-th checkpoint of host j — so the
// vectors, frames and logs hold CKPT alone. An entry never moves once it
// is written, so a view that names checkpoint k reads its station
// wherever the view goes on the protocol side, while the host appends.
type tpStations = column.Column[int32]

// locations is the LOC vector beside ckpt: the station of every
// checkpoint ckpt names, -1 where it names none.
func locations(stations []*tpStations, ckpt vclock.Vector) vclock.Vector {
	loc := vclock.New(len(ckpt), -1)
	for j, x := range ckpt {
		if x >= 0 {
			loc[j] = int(stations[j].At(x))
		}
	}
	return loc
}

// TPView is one host's dependency vectors as they stood at one instant —
// the piggyback OnSend returns and the form a checkpoint's vectors are
// stored in. It owns no vector: it names the host's frame and log array
// as they were at that instant, the prefix of the log that existed then,
// and every host's station table as the slice of them stood then. Frames
// are never written after they are built, a log array is only written
// past every prefix taken of it and a table never moves an entry, so a
// view costs O(1) to take and is immutable while the hosts move on. It is
// read where the protocol runs: a table's chunk directory grows as its
// host checkpoints, so the live cluster encodes a view before it releases
// the lock its protocol events run under.
type TPView struct {
	// frame is the host's CKPT vector when its log array was made, or
	// nil when that state went into the log as records. Entries the
	// frame lacks — all of them when it is nil, the newest ones after a
	// join — are -1.
	frame []int32
	log   []tpChange // oldest first
	// stations has one table per host the view is wide.
	stations []*tpStations
}

// Dense materializes the vectors the view stands for.
func (v *TPView) Dense() TPPiggyback {
	ckpt := vclock.New(len(v.stations), -1)
	for j, x := range v.frame {
		ckpt[j] = int(x)
	}
	for _, c := range v.log {
		ckpt[c.idx] = int(c.ckpt)
	}
	return TPPiggyback{Ckpt: ckpt, Loc: locations(v.stations, ckpt)}
}

// tpHost is one host's protocol state. What other hosts see of it are
// TPViews and its station table.
type tpHost struct {
	phase Phase
	// vec[j] = index of the last checkpoint of host j that this host's
	// current state transitively depends on (its own entry is the index
	// of its current checkpoint interval). Entries only ever rise,
	// through raise.
	vec []int32
	// (frame, log) is the state's whole history since the log array was
	// made: the state then, as a copy of vec or (frame nil) as the log's
	// first records, then a record of every entry raised since, so any
	// prefix of log is a past state. The first log array holds the one
	// record of the initial checkpoint; every later one is as wide as vec
	// was when it was made.
	frame []int32
	log   []tpChange
	// sent is the view the last send took, shared by every send until
	// the vectors next change.
	sent *TPView
	// taken[k] is the host's k-th checkpoint with the vectors recorded
	// alongside it: the on-stable-storage copy used to assemble a
	// recovery line during rollback.
	taken column.Column[tpCheckpoint]
}

type tpCheckpoint struct {
	rec  *storage.Record
	view TPView
}

// tail is the free tail of the host's log array: past every view's
// prefix, so no view reads it, and where a merge writes the records
// of the entries it raises.
func (s *tpHost) tail() []tpChange { return s.log[len(s.log):cap(s.log)] }

// raise sets entry j to x, which must exceed it, and writes the change
// into slot k of tail while there is one. Entry j rises at most once per
// merge, so the records tail holds are distinct entries.
func (s *tpHost) raise(tail []tpChange, k, j int, x int32) {
	s.vec[j] = x
	if k < len(tail) {
		tail[k] = tpChange{int32(j), x}
	}
}

// logged ends a merge that raised k entries, whose records are the first
// k of tail if they fit. When they fit they join the log. When they do
// not, the host starts a new log array as wide as vec, and vec, which
// already holds every raise, becomes the state the array starts from: as
// records of its known entries when they fill at most half the array (no
// frame, so the -1 fill is implied), else as a new frame, a copy of vec.
// No array is ever reallocated, so earlier views keep the frame and
// prefix they name. One counting pass picks the form, so neither is
// built and thrown away. Either way at least half the array is free, so
// the O(n) start costs O(1) per change amortized and a view never
// replays more than n records.
func (s *tpHost) logged(k int) {
	if k == 0 {
		return
	}
	s.sent = nil
	if len(s.log)+k <= cap(s.log) {
		s.log = s.log[:len(s.log)+k]
		return
	}
	w, known := len(s.vec), 0
	for _, x := range s.vec {
		if x >= 0 {
			known++
		}
	}
	s.frame, s.log = nil, make([]tpChange, 0, w)
	if known > w/2 {
		s.frame = slices.Clone(s.vec)
		return
	}
	for j, x := range s.vec {
		if x >= 0 {
			s.log = append(s.log, tpChange{int32(j), x})
		}
	}
}

// merge raises every entry of the host's state that the dense vectors pb
// dominate. The vectors may be narrower (a message sent before new hosts
// joined: the missing entries carry no dependency); wider ones are a
// message from the future. Every entry must be one a view's Dense could
// have produced — -1 beside -1, or a checkpoint its host recorded beside
// the station it was taken at — or the whole delivery is refused before
// anything is raised: the state keeps no LOC of its own to store a
// disagreeing one in.
func (s *tpHost) merge(pb TPPiggyback, stations []*tpStations) {
	if len(pb.Ckpt) != len(pb.Loc) || len(pb.Ckpt) > len(s.vec) {
		panic("protocol: TP merge width mismatch")
	}
	for j, x := range pb.Ckpt {
		known := x == -1 && pb.Loc[j] == -1 ||
			x >= 0 && x < stations[j].Len() && pb.Loc[j] == int(stations[j].At(x))
		if !known {
			panic("protocol: TP piggyback names a checkpoint or station its host never recorded")
		}
	}
	tail, k := s.tail(), 0
	for j, x := range pb.Ckpt {
		if x > int(s.vec[j]) {
			s.raise(tail, k, j, int32(x))
			k++
		}
	}
	s.logged(k)
}

// mergeView is merge(v.Dense()) without building the vectors. One
// entry's log records only ever rise, above the frame's value, so the
// view's value of entry j is j's newest record, or the frame's entry if
// it has none. Replaying the log newest first and the frame last under
// merge's strict > therefore raises exactly the entries the dense merge
// raises, to the same values, once each: whatever precedes an entry's
// newest record is smaller and no longer wins. LOC needs no merging: it
// follows from CKPT through the station tables.
func (s *tpHost) mergeView(v *TPView) {
	if len(v.stations) > len(s.vec) {
		panic("protocol: TP merge width mismatch")
	}
	tail, k := s.tail(), 0
	for i := len(v.log) - 1; i >= 0; i-- {
		if c := v.log[i]; c.ckpt > s.vec[c.idx] {
			s.raise(tail, k, int(c.idx), c.ckpt)
			k++
		}
	}
	vec := s.vec[:len(v.frame)]
	for j, x := range v.frame {
		if x > vec[j] {
			s.raise(tail, k, j, x)
			k++
		}
	}
	s.logged(k)
}

// TP is the two-phase protocol of Acharya–Badrinath (§4.1), an adaptation
// of Russell's protocol to mobile systems: a forced checkpoint is taken
// whenever a message is received while the host is in the SEND phase.
type TP struct {
	ckpt  Checkpointer
	mssOf func(mobile.HostID) mobile.MSSID

	hosts []tpHost
	// stations[j] is host j's station table. A join appends to the slice
	// but never moves a table, so a view reads the slice it captured.
	stations []*tpStations

	snapCopies int64
	snapReuses int64
	piggyback  int64
}

// NewTP creates a TP instance for n hosts. ckpt records checkpoints;
// mssOf reports a host's current station (recorded in the host's station
// table, which LOC is read from; for a disconnected host it must return
// the station holding its checkpoints, which mobile.Host guarantees via
// the last MSS).
func NewTP(n int, ckpt Checkpointer, mssOf func(mobile.HostID) mobile.MSSID) *TP {
	t := &TP{ckpt: ckpt, mssOf: mssOf, hosts: make([]tpHost, n), stations: make([]*tpStations, n)}
	tables := make([]tpStations, n)
	firstLogs := make([]tpChange, n) // one record each, for Init's bump
	for i := range t.hosts {
		t.hosts[i].vec = newTPState(n)
		t.hosts[i].log = firstLogs[i : i : i+1]
		t.stations[i] = &tables[i]
	}
	return t
}

// Name implements Protocol.
func (t *TP) Name() string { return "TP" }

// Init implements Protocol: every host starts in RECV phase with its
// initial checkpoint (interval 0) on stable storage.
func (t *TP) Init() {
	for i := range t.hosts {
		t.hosts[i].phase = RECV
		t.takeCheckpoint(mobile.HostID(i), storage.Initial)
	}
}

// takeCheckpoint advances host h into a new checkpoint interval, records
// the station it is taken at, and records the dependency vectors
// alongside the checkpoint. The station is in the table before the index
// is in any vector, so whoever reads the index can read the station.
func (t *TP) takeCheckpoint(h mobile.HostID, kind storage.Kind) {
	s, st, mss := &t.hosts[h], t.stations[h], t.mssOf(h)
	k := st.Len()
	if k == math.MaxInt32 || mobile.MSSID(int32(mss)) != mss {
		panic("protocol: TP checkpoint index or station does not fit in 32 bits")
	}
	st.Append(int32(mss))
	s.raise(s.tail(), 0, int(h), int32(k))
	s.logged(1)
	rec := t.ckpt(h, k, kind)
	s.taken.Append(tpCheckpoint{rec, t.view(s)})
}

// view returns host s's vectors as they stand now.
func (t *TP) view(s *tpHost) TPView {
	return TPView{frame: s.frame, log: s.log[:len(s.log):len(s.log)], stations: t.stations}
}

// OnSend implements Protocol: sending flips the host into the SEND phase
// and piggybacks both dependency vectors, as a *TPView — safe while the
// message is in flight and shared by every send since the host's last
// vector change. The piggyback *accounting* still charges the full
// 2n-word vectors per message: what the simulator hands around is not
// what the wireless link would carry.
func (t *TP) OnSend(from, to mobile.HostID) any {
	s := &t.hosts[from]
	s.phase = SEND
	t.piggyback += int64(2 * len(t.hosts) * intSize)
	if s.sent != nil {
		t.snapReuses++
		return s.sent
	}
	v := t.view(s)
	s.sent = &v
	t.snapCopies++
	return s.sent
}

// SnapshotStats reports how sends obtained their piggyback: copies counts
// the sends that took a new view because the host's vectors had changed
// since its previous send (an O(1) header, no longer a vector copy),
// reuses the sends that shared the previous send's view. Their sum is
// the number of sends.
func (t *TP) SnapshotStats() (copies, reuses int64) {
	return t.snapCopies, t.snapReuses
}

// OnDeliver implements Protocol: a delivery in SEND phase forces a
// checkpoint *before* the message is processed, then the sender's
// dependencies are merged into the receiver's vectors. The simulation
// delivers the view OnSend returned; the live runtime delivers the dense
// form decoded from the wire.
func (t *TP) OnDeliver(h, from mobile.HostID, pb any) {
	s := &t.hosts[h]
	if s.phase == SEND {
		t.takeCheckpoint(h, storage.Forced)
		s.phase = RECV
	}
	switch v := pb.(type) {
	case *TPView:
		s.mergeView(v)
	case TPPiggyback:
		s.merge(v, t.stations)
	default:
		panic("protocol: TP delivery with non-TP piggyback")
	}
}

// OnCellSwitch implements Protocol: a hand-off takes a basic checkpoint
// (now stored at the new station).
func (t *TP) OnCellSwitch(h mobile.HostID, newMSS mobile.MSSID) {
	t.takeCheckpoint(h, storage.Basic)
}

// OnDisconnect implements Protocol: disconnection takes a basic
// checkpoint, left at the station being departed.
func (t *TP) OnDisconnect(h mobile.HostID) {
	t.takeCheckpoint(h, storage.Basic)
}

// OnReconnect implements Protocol. TP takes no action: the disconnection
// checkpoint already represents the host.
func (t *TP) OnReconnect(h mobile.HostID, at mobile.MSSID) {}

// PiggybackBytes implements Protocol.
func (t *TP) PiggybackBytes() int64 { return t.piggyback }

// OnJoin implements Protocol. Admitting a host into TP is expensive:
// every existing host's dependency vectors gain a component, which in a
// real deployment means a membership-change control message to each of
// them (the reason the paper judges TP unable to scale in an open
// system, §4.1/§2.2 point (3)).
func (t *TP) OnJoin(h mobile.HostID) int64 {
	if int(h) != len(t.hosts) {
		panic("protocol: TP join with non-dense host id")
	}
	n := len(t.hosts) + 1
	for i := range t.hosts {
		// The new component is the -1 a narrower frame already implies,
		// so nothing is logged; only the width of later views changes
		// (ragged merges accept the narrower ones still in flight).
		s := &t.hosts[i]
		s.vec = append(s.vec, -1)
		s.sent = nil
	}
	t.hosts = append(t.hosts, tpHost{vec: newTPState(n), log: make([]tpChange, 0, 1)})
	t.stations = append(t.stations, new(tpStations))
	t.takeCheckpoint(h, storage.Initial)
	return int64(n - 1) // one membership notification per existing host
}

// Meta returns the dependency vectors recorded with checkpoint rec, and
// whether rec belongs to this protocol instance. The recovery package
// uses them to assemble the consistent global checkpoint a local
// checkpoint belongs to: if Ckpt[j] = p and Loc[j] = q, the line through
// rec includes the p-th checkpoint of host j, stored at station q.
func (t *TP) Meta(rec *storage.Record) (TPPiggyback, bool) {
	// A host's checkpoint indices count up from 0, so the index is the
	// position in taken.
	if rec == nil || rec.Host < 0 || int(rec.Host) >= len(t.hosts) {
		return TPPiggyback{}, false
	}
	taken := &t.hosts[rec.Host].taken
	if rec.Index < 0 || int(rec.Index) >= taken.Len() {
		return TPPiggyback{}, false
	}
	c := taken.At(int(rec.Index))
	if c.rec != rec {
		return TPPiggyback{}, false
	}
	return c.view.Dense(), true
}

// Phase returns host h's current phase (exported for tests and tracing).
func (t *TP) PhaseOf(h mobile.HostID) Phase { return t.hosts[h].phase }

// DependencyVector returns a copy of host h's current CKPT vector.
func (t *TP) DependencyVector(h mobile.HostID) vclock.Vector {
	vec := t.hosts[h].vec
	v := make(vclock.Vector, len(vec))
	for j, x := range vec {
		v[j] = int(x)
	}
	return v
}

// LocationVector returns host h's current LOC vector.
func (t *TP) LocationVector(h mobile.HostID) vclock.Vector {
	return locations(t.stations, t.DependencyVector(h))
}
