package protocol

import (
	"slices"
	"sync/atomic"

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

// tpEntry is component j of a host's dependency state: CKPT[j] and
// LOC[j], which TP only ever writes together. Both fields are 32 bits
// wide — the vectors, their frames and their change logs are what a run
// retains per host and per checkpoint; tpEntryOf refuses values that do
// not fit.
type tpEntry struct{ ckpt, loc int32 }

// tpChange is one change-log record: entry idx of a host's state rose to
// the pair it carries.
type tpChange struct {
	idx int32
	tpEntry
}

// tpEntryOf is the pair (ckpt, loc), or a panic if either does not fit
// in 32 bits.
func tpEntryOf(ckpt, loc int) tpEntry {
	e := tpEntry{int32(ckpt), int32(loc)}
	if int(e.ckpt) != ckpt || int(e.loc) != loc {
		panic("protocol: TP vector entry does not fit in 32 bits")
	}
	return e
}

// newTPState is a host's state before it depends on anything: width
// entries of (-1, -1).
func newTPState(width int) []tpEntry {
	vec := make([]tpEntry, width)
	for j := range vec {
		vec[j] = tpEntry{-1, -1}
	}
	return vec
}

// TPView is one host's dependency vectors as they stood at one instant —
// the piggyback OnSend returns and the form a checkpoint's vectors are
// stored in. It owns no vector: it names the host's frame (its dense
// vectors at its last compaction) and the prefix of its change log that
// existed at that instant. Frames are never written after they are built
// and a log only grows past the prefix, so a view costs O(1) to take, is
// immutable, and may be read from any lane while its host moves on.
type TPView struct {
	// frame is the host's state at its last compaction. Entries the
	// frame lacks — all of them for a host that has not compacted yet,
	// the newest ones after a join — are (-1, -1).
	frame []tpEntry
	log   []tpChange // oldest first
	width int
}

// Dense materializes the vectors the view stands for.
func (v *TPView) Dense() TPPiggyback {
	pb := TPPiggyback{Ckpt: vclock.New(v.width, -1), Loc: vclock.New(v.width, -1)}
	for j, e := range v.frame {
		pb.Ckpt[j], pb.Loc[j] = int(e.ckpt), int(e.loc)
	}
	for _, c := range v.log {
		pb.Ckpt[c.idx], pb.Loc[c.idx] = int(c.ckpt), int(c.loc)
	}
	return pb
}

// tpHost is one host's protocol state. Only the lane that owns the host
// touches it; what other lanes see of it are TPViews.
type tpHost struct {
	phase Phase
	// vec[j].ckpt = index of the last checkpoint of host j that this
	// host's current state transitively depends on (its own entry is the
	// index of its current checkpoint interval); vec[j].loc = MSS storing
	// that checkpoint. Entries only ever rise, one at a time, through set.
	vec []tpEntry
	// frame is a copy of vec taken at the last compaction and log lists
	// every entry set since, so (frame, log) is the state's whole history
	// since then: any prefix of log is a past state.
	frame []tpEntry
	log   []tpChange
	// sent is the view the last send took, shared by every send until
	// the vectors next change.
	sent *TPView
	// taken[k] is the host's k-th checkpoint with the vectors recorded
	// alongside it: the on-stable-storage copy used to assemble a
	// recovery line during rollback.
	taken []tpCheckpoint
}

type tpCheckpoint struct {
	rec  *storage.Record
	view TPView
}

// set raises entry j to e and logs the change.
func (s *tpHost) set(j int, e tpEntry) {
	s.vec[j] = e
	s.log = append(s.log, tpChange{int32(j), e})
	s.sent = nil
}

// compact starts a new frame once the log is as long as the vectors are
// wide: one O(n) copy per n changes, so a change costs O(1) amortized and
// a view never carries more than n records. Earlier views keep the frame
// and log they name. The fresh log is sized for the next n changes at
// once — a host that filled one log will fill the next.
func (s *tpHost) compact() {
	w := len(s.vec)
	if len(s.log) < w {
		return
	}
	s.frame = slices.Clone(s.vec)
	s.log = make([]tpChange, 0, w)
}

// view returns the host's vectors as they stand now.
func (s *tpHost) view() TPView {
	return TPView{frame: s.frame, log: s.log[:len(s.log):len(s.log)], width: len(s.vec)}
}

// merge raises every entry of the host's state that dense vectors
// (ckpt, loc) dominate — TP's paired update: LOC[j] always names the MSS
// holding the CKPT[j]-th checkpoint of host j. The incoming vectors may
// be narrower (a message sent before new hosts joined: the missing
// entries carry no dependency); wider ones are a message from the future.
func (s *tpHost) merge(ckpt, loc vclock.Vector) {
	if len(ckpt) != len(loc) || len(ckpt) > len(s.vec) {
		panic("protocol: TP merge width mismatch")
	}
	for j, x := range ckpt {
		if x > int(s.vec[j].ckpt) {
			s.set(j, tpEntryOf(x, loc[j]))
		}
	}
}

// mergeView is merge(v.Dense()) without building the vectors. One
// entry's log records only ever rise, above the frame's value, and a
// location changes only together with its index, so the view's value of
// entry j is j's newest record, or the frame's entry if it has none.
// Replaying the log newest first and the frame last under merge's strict
// > therefore raises exactly the entries the dense merge raises, to the
// same values, once each: whatever precedes an entry's newest record is
// smaller and no longer wins.
func (s *tpHost) mergeView(v *TPView) {
	if v.width > len(s.vec) {
		panic("protocol: TP merge width mismatch")
	}
	for i := len(v.log) - 1; i >= 0; i-- {
		if c := v.log[i]; c.ckpt > s.vec[c.idx].ckpt {
			s.set(int(c.idx), c.tpEntry)
		}
	}
	vec := s.vec[:len(v.frame)]
	for j, e := range v.frame {
		if e.ckpt > vec[j].ckpt {
			s.set(j, e)
		}
	}
}

// TP is the two-phase protocol of Acharya–Badrinath (§4.1), an adaptation
// of Russell's protocol to mobile systems: a forced checkpoint is taken
// whenever a message is received while the host is in the SEND phase.
type TP struct {
	ckpt  Checkpointer
	mssOf func(mobile.HostID) mobile.MSSID

	hosts []tpHost

	snapCopies atomic.Int64
	snapReuses atomic.Int64
	piggyback  atomic.Int64
}

// NewTP creates a TP instance for n hosts. ckpt records checkpoints;
// mssOf reports a host's current station (used to maintain LOC; for a
// disconnected host it must return the station holding its checkpoints,
// which mobile.Host guarantees via the last MSS).
func NewTP(n int, ckpt Checkpointer, mssOf func(mobile.HostID) mobile.MSSID) *TP {
	t := &TP{ckpt: ckpt, mssOf: mssOf, hosts: make([]tpHost, n)}
	for i := range t.hosts {
		t.hosts[i].vec = newTPState(n)
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

// takeCheckpoint advances host h into a new checkpoint interval and
// records the dependency vectors alongside the checkpoint.
func (t *TP) takeCheckpoint(h mobile.HostID, kind storage.Kind) {
	s := &t.hosts[h]
	s.set(int(h), tpEntryOf(int(s.vec[h].ckpt)+1, int(t.mssOf(h))))
	s.compact()
	rec := t.ckpt(h, int(s.vec[h].ckpt), kind)
	s.taken = append(s.taken, tpCheckpoint{rec, s.view()})
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
	t.piggyback.Add(int64(2 * len(t.hosts) * intSize))
	if s.sent != nil {
		t.snapReuses.Add(1)
		return s.sent
	}
	v := s.view()
	s.sent = &v
	t.snapCopies.Add(1)
	return s.sent
}

// SnapshotStats reports how sends obtained their piggyback: copies counts
// the sends that took a new view because the host's vectors had changed
// since its previous send (an O(1) header, no longer a vector copy),
// reuses the sends that shared the previous send's view. Their sum is
// the number of sends.
func (t *TP) SnapshotStats() (copies, reuses int64) {
	return t.snapCopies.Load(), t.snapReuses.Load()
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
		s.merge(v.Ckpt, v.Loc)
	default:
		panic("protocol: TP delivery with non-TP piggyback")
	}
	s.compact()
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
func (t *TP) PiggybackBytes() int64 { return t.piggyback.Load() }

// OnJoin implements Dynamic. Admitting a host into TP is expensive:
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
		s.vec = append(s.vec, tpEntry{-1, -1})
		s.sent = nil
	}
	t.hosts = append(t.hosts, tpHost{vec: newTPState(n)})
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
	taken := t.hosts[rec.Host].taken
	if rec.Index < 0 || rec.Index >= len(taken) || taken[rec.Index].rec != rec {
		return TPPiggyback{}, false
	}
	return taken[rec.Index].view.Dense(), true
}

// Phase returns host h's current phase (exported for tests and tracing).
func (t *TP) PhaseOf(h mobile.HostID) Phase { return t.hosts[h].phase }

// DependencyVector returns a copy of host h's current CKPT vector.
func (t *TP) DependencyVector(h mobile.HostID) vclock.Vector {
	vec := t.hosts[h].vec
	v := make(vclock.Vector, len(vec))
	for j, e := range vec {
		v[j] = int(e.ckpt)
	}
	return v
}

// LocationVector returns a copy of host h's current LOC vector.
func (t *TP) LocationVector(h mobile.HostID) vclock.Vector {
	vec := t.hosts[h].vec
	v := make(vclock.Vector, len(vec))
	for j, e := range vec {
		v[j] = int(e.loc)
	}
	return v
}
