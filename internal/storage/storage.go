// Package storage models the checkpoint stable storage of the paper's
// mobile setting: because MH local storage is limited and vulnerable
// (§2.1 point a), every checkpoint is transferred over the wireless cell
// to the current MSS's stable storage.
//
// The package implements the incremental checkpointing technique of §2.2:
// only the state that changed since the previous checkpoint crosses the
// wireless link; the MSS reconstructs the full checkpoint, fetching the
// previous one from another MSS over the wired network when the host has
// switched cells in between. All transfer volumes are accounted so that
// higher layers can compare protocols by channel/energy cost, not just by
// checkpoint count.
package storage

import (
	"fmt"
	"sort"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

// Kind classifies why a checkpoint was taken.
type Kind uint8

const (
	// Initial is the checkpoint every host takes at time 0 (index 0).
	Initial Kind = iota
	// Basic checkpoints are forced by mobility: cell switch or
	// disconnection (§3: "these checkpoints cannot be avoided").
	Basic
	// Forced checkpoints are induced by the checkpointing protocol upon
	// certain communication patterns.
	Forced
)

func (k Kind) String() string {
	switch k {
	case Initial:
		return "initial"
	case Basic:
		return "basic"
	case Forced:
		return "forced"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Record describes one stored checkpoint: a 32-byte row with no pointer
// in it, carved from a chunk of the store that never moves. Host and
// station ids, ordinals and indices all fit 32 bits (a run holds at most
// a few million hosts and checkpoints). What a checkpoint cost to ship
// is not kept: it follows from the cost model, the record's ordinal and
// its predecessor's station (CostModel.units).
type Record struct {
	Host    int32 // mobile.HostID
	Ordinal int32 // per-host creation order, 0-based; unique per host
	Index   int32 // protocol sequence number; QBC may reuse an index
	MSS     int32 // mobile.MSSID of the station holding the reconstructed checkpoint
	TakenAt des.Time
	Kind    Kind

	// Superseded marks a checkpoint replaced in the recovery line by a
	// later equivalent one (QBC's equivalence rule). Its storage can be
	// reclaimed.
	Superseded bool

	// Pruned marks a checkpoint discarded by garbage collection: no
	// possible future recovery line can include it (see
	// recovery.StableIndex).
	Pruned bool
}

// ID renders a stable identifier C_{host,ordinal}(index).
func (r *Record) ID() string {
	return fmt.Sprintf("C_%d,%d(sn=%d)", r.Host, r.Ordinal, r.Index)
}

// CostModel sets the abstract state-volume parameters of the incremental
// scheme. Units are arbitrary (think kilobytes).
type CostModel struct {
	// FullState is the size of a complete process state.
	FullState int64
	// Delta is the size of the modified-since-last-checkpoint increment.
	Delta int64
	// Incremental selects incremental (true) or always-full (false)
	// transfer; the ablation bench compares the two.
	Incremental bool
}

// DefaultCostModel returns a full state of 1024 units with 10% deltas,
// incremental transfers enabled.
func DefaultCostModel() CostModel {
	return CostModel{FullState: 1024, Delta: 102, Incremental: true}
}

// units returns the transfer costs of checkpoint r under the incremental
// scheme, given prev, the checkpoint before it in its host's chain (nil
// for the first): delta is the state volume shipped over the wireless
// link, fetch the volume shipped between MSSs to reconstruct it.
//
//   - first checkpoint ever: full state over wireless;
//   - previous checkpoint at the same MSS: delta over wireless;
//   - previous checkpoint at another MSS: delta over wireless plus a
//     full-state fetch over the wired network so the new MSS can
//     reconstruct (§2.2 "Incremental Checkpointing").
func (m CostModel) units(r, prev *Record) (delta, fetch int64) {
	if !m.Incremental || prev == nil {
		return m.FullState, 0
	}
	if prev.MSS != r.MSS {
		return m.Delta, m.FullState
	}
	return m.Delta, 0
}

// Counters aggregates transfer activity across all hosts.
type Counters struct {
	Checkpoints    int64 // total records created
	FullTransfers  int64 // wireless transfers of a complete state
	DeltaTransfers int64 // wireless transfers of an increment
	Fetches        int64 // wired fetches of a previous checkpoint
	WirelessUnits  int64 // state volume over wireless links
	WiredUnits     int64 // state volume over wired links
	Reclaimed      int64 // records superseded or pruned
}

// Store holds every host's checkpoint chain and the per-MSS placement.
// Host ids are dense (mobile keeps them so), so the chains live in a
// flat slice indexed by HostID rather than a map: no hashing on the
// checkpoint path and cache-friendly sweeps when aggregating at n=1e6.
//
// Records are carved, in the order they are taken, from chunks that
// never move, so a chain's *Record stays valid for the store's life and
// a checkpoint costs its 32-byte row plus its chain slot rather than an
// allocation of its own. A host's first chain slot is carved from a
// shared chunk of slots too (n of them back to back when a protocol is
// constructed); the second checkpoint moves the chain to a backing of
// its own, which then grows by append.
type Store struct {
	model  CostModel
	chains [][]*Record // indexed by HostID; grown by doubling on first Take

	free      []Record  // the rest of the newest chunk, not yet handed out
	freeSlots []*Record // the rest of the newest chunk of one-element chain backings
	chunk     int       // length of the newest chunks, doubling up to chunkMax
}

// On a column.Column, TestTinyWorldSetupAllocs rose 2.4 kB, to its bound (E52).
const (
	chunkMin = 16
	chunkMax = 4096
)

// NewStore returns an empty store with the given cost model.
func NewStore(model CostModel) *Store {
	return &Store{model: model}
}

// chain returns host's chain, nil for hosts that never checkpointed.
func (s *Store) chain(host mobile.HostID) []*Record {
	if int(host) >= len(s.chains) {
		return nil
	}
	return s.chains[host]
}

// Take records a new checkpoint of host at station mss with the given
// protocol index and kind; CostModel.units says what it costs to ship.
// The index must not fall below the host's previous one (superseded and
// pruned records included): FirstWithIndexAtLeast searches on that
// order, so Take panics rather than store a chain it would misread.
func (s *Store) Take(host mobile.HostID, mss mobile.MSSID, index int, kind Kind, now des.Time) *Record {
	if int(host) >= len(s.chains) {
		if int(host) >= cap(s.chains) {
			grown := make([][]*Record, int(host)+1, max(2*cap(s.chains), int(host)+1, chunkMin))
			copy(grown, s.chains)
			s.chains = grown
		}
		s.chains = s.chains[:int(host)+1]
	}
	chain := s.chains[host]
	if n := len(chain); n > 0 && index < int(chain[n-1].Index) {
		panic(fmt.Sprintf("storage: host %d takes index %d after index %d: indices must not decrease along a chain",
			host, index, chain[n-1].Index))
	}
	if len(s.free) == 0 {
		s.chunk = min(max(2*s.chunk, chunkMin), chunkMax)
		s.free = make([]Record, s.chunk)
	}
	r := &s.free[0]
	s.free = s.free[1:]
	*r = Record{
		Host:    int32(host),
		Ordinal: int32(len(chain)),
		Index:   int32(index),
		MSS:     int32(mss),
		TakenAt: now,
		Kind:    kind,
	}
	if chain == nil {
		if len(s.freeSlots) == 0 {
			s.freeSlots = make([]*Record, s.chunk)
		}
		// Capacity 1, like the chain append would have built.
		chain, s.freeSlots = s.freeSlots[:0:1], s.freeSlots[1:]
	}
	s.chains[host] = append(chain, r)
	return r
}

// Supersede marks the latest non-superseded checkpoint of host with the
// same index as rec (other than rec itself) as replaced. It implements
// QBC's equivalence rule: rec takes its predecessor's place in every
// recovery line with that index. It returns the superseded record, or
// nil if none existed.
func (s *Store) Supersede(rec *Record) *Record {
	chain := s.chain(mobile.HostID(rec.Host))
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		if c == rec || c.Superseded {
			continue
		}
		if c.Index == rec.Index {
			c.Superseded = true
			return c
		}
		if c.Index < rec.Index {
			break
		}
	}
	return nil
}

// Chain returns host's checkpoints in creation order. The returned slice
// is owned by the store; callers must not mutate it.
func (s *Store) Chain(host mobile.HostID) []*Record { return s.chain(host) }

// Latest returns host's most recent checkpoint, or nil if none.
func (s *Store) Latest(host mobile.HostID) *Record {
	chain := s.chain(host)
	if len(chain) == 0 {
		return nil
	}
	return chain[len(chain)-1]
}

// LatestLive returns host's most recent non-superseded, non-pruned
// checkpoint, or nil.
func (s *Store) LatestLive(host mobile.HostID) *Record {
	chain := s.chain(host)
	for i := len(chain) - 1; i >= 0; i-- {
		if !chain[i].Superseded && !chain[i].Pruned {
			return chain[i]
		}
	}
	return nil
}

// FirstWithIndexAtLeast returns host's earliest live (non-superseded,
// non-pruned) checkpoint whose index is >= index, or nil. This is the
// recovery-line membership rule of BCS/QBC: "if there is a jump in the
// sequence number of a process, the first checkpoint with greater
// sequence number must be included".
//
// Indices never decrease along a chain (Take enforces it), so the
// records below index are a prefix and a binary search skips them: the
// live cluster asks on every hand-off, of chains it never collects.
func (s *Store) FirstWithIndexAtLeast(host mobile.HostID, index int) *Record {
	chain := s.chain(host)
	from := sort.Search(len(chain), func(i int) bool { return int(chain[i].Index) >= index })
	for _, c := range chain[from:] {
		if !c.Superseded && !c.Pruned {
			return c
		}
	}
	return nil
}

// PruneBefore garbage-collects host's checkpoints with ordinal strictly
// below keepOrdinal, returning the number of records and the state
// volume reclaimed (already-superseded records do not count again).
// Records stay in the chain (ordinals are stable identifiers) but are
// excluded from recovery-line construction.
func (s *Store) PruneBefore(host mobile.HostID, keepOrdinal int) (records int, units int64) {
	var prev *Record
	for _, c := range s.chain(host) {
		if int(c.Ordinal) >= keepOrdinal {
			break
		}
		if !c.Pruned {
			c.Pruned = true
			if !c.Superseded {
				records++
				delta, _ := s.model.units(c, prev)
				units += delta
			}
		}
		prev = c
	}
	return records, units
}

// LiveRecords returns the number of host's records on stable storage
// that are neither superseded nor pruned (across all hosts when host is
// negative).
func (s *Store) LiveRecords(host mobile.HostID) int {
	count := func(chain []*Record) int {
		n := 0
		for _, c := range chain {
			if !c.Superseded && !c.Pruned {
				n++
			}
		}
		return n
	}
	if host >= 0 {
		return count(s.chain(host))
	}
	total := 0
	for _, chain := range s.chains {
		total += count(chain)
	}
	return total
}

// Counters walks the chains and aggregates transfer activity, deriving
// each checkpoint's costs as it goes.
func (s *Store) Counters() Counters {
	var c Counters
	for _, chain := range s.chains {
		var prev *Record
		for _, r := range chain {
			delta, fetch := s.model.units(r, prev)
			prev = r
			c.Checkpoints++
			if delta >= s.model.FullState {
				c.FullTransfers++
			} else {
				c.DeltaTransfers++
			}
			c.WirelessUnits += delta
			if fetch > 0 {
				c.Fetches++
				c.WiredUnits += fetch
			}
			if r.Superseded || r.Pruned {
				c.Reclaimed++
			}
		}
	}
	return c
}

// CountByKind returns the number of checkpoints of each kind for host
// (or across all hosts when host is negative).
func (s *Store) CountByKind(host mobile.HostID) (initial, basic, forced int) {
	count := func(chain []*Record) {
		for _, r := range chain {
			switch r.Kind {
			case Initial:
				initial++
			case Basic:
				basic++
			case Forced:
				forced++
			}
		}
	}
	if host >= 0 {
		count(s.chain(host))
		return
	}
	for _, chain := range s.chains {
		count(chain)
	}
	return
}
