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
	"slices"
	"sort"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

// Kind classifies why a checkpoint was taken.
type Kind int

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

// Record describes one stored checkpoint.
type Record struct {
	Host    mobile.HostID
	Ordinal int // per-host creation order, 0-based; unique per host
	Index   int // protocol sequence number; QBC may reuse an index
	Kind    Kind
	TakenAt des.Time
	MSS     mobile.MSSID // station holding the reconstructed checkpoint

	// Superseded marks a checkpoint replaced in the recovery line by a
	// later equivalent one (QBC's equivalence rule). Its storage can be
	// reclaimed.
	Superseded bool

	// Pruned marks a checkpoint discarded by garbage collection: no
	// possible future recovery line can include it (see
	// recovery.StableIndex).
	Pruned bool

	// DeltaUnits is the state volume shipped over the wireless link for
	// this checkpoint; FetchUnits is the volume shipped between MSSs to
	// reconstruct it.
	DeltaUnits int64
	FetchUnits int64
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
type Store struct {
	model  CostModel
	chains [][]*Record // indexed by HostID; grown on first Take

	// A host's first checkpoint — n of them back to back when a protocol
	// is constructed — is carved from these slabs instead of costing two
	// allocations: recSlab holds the unissued records, ptrSlab the unissued
	// one-element chain backings, slabSize the size of the newest pair
	// (doubling from recordSlabMin to recordSlabMax). Only the Take that
	// grows the chain table carves; that Take already needs the store to
	// itself, so later Takes stay safe to run one host per goroutine.
	recSlab  []Record
	ptrSlab  []*Record
	slabSize int
}

const (
	recordSlabMin = 16
	recordSlabMax = 4096
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
// protocol index and kind, charging the transfer costs of the
// incremental scheme:
//
//   - first checkpoint ever: full state over wireless;
//   - previous checkpoint at the same MSS: delta over wireless;
//   - previous checkpoint at another MSS: delta over wireless plus a
//     full-state fetch over the wired network so the new MSS can
//     reconstruct (§2.2 "Incremental Checkpointing").
func (s *Store) Take(host mobile.HostID, mss mobile.MSSID, index int, kind Kind, now des.Time) *Record {
	var r *Record
	if int(host) >= len(s.chains) {
		s.chains = slices.Grow(s.chains, int(host)+1-len(s.chains))[:int(host)+1]
		if len(s.recSlab) == 0 {
			s.slabSize = min(max(2*s.slabSize, recordSlabMin), recordSlabMax)
			s.recSlab = make([]Record, s.slabSize)
			s.ptrSlab = make([]*Record, s.slabSize)
		}
		r, s.recSlab = &s.recSlab[0], s.recSlab[1:]
		// Capacity 1, like the chain append would have built: the second
		// checkpoint moves the chain to storage of its own.
		s.chains[host], s.ptrSlab = s.ptrSlab[:0:1], s.ptrSlab[1:]
	} else {
		r = new(Record)
	}
	chain := s.chains[host]
	*r = Record{
		Host:    host,
		Ordinal: len(chain),
		Index:   index,
		Kind:    kind,
		TakenAt: now,
		MSS:     mss,
	}
	switch {
	case !s.model.Incremental || len(chain) == 0:
		r.DeltaUnits = s.model.FullState
	default:
		r.DeltaUnits = s.model.Delta
		if prev := chain[len(chain)-1]; prev.MSS != mss {
			r.FetchUnits = s.model.FullState
		}
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
	chain := s.chain(rec.Host)
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
// Indices never decrease along a chain (every protocol numbers its
// checkpoints that way), so the records below index are a prefix and a
// binary search skips them: the live cluster asks on every hand-off, of
// chains it never collects.
func (s *Store) FirstWithIndexAtLeast(host mobile.HostID, index int) *Record {
	chain := s.chain(host)
	from := sort.Search(len(chain), func(i int) bool { return chain[i].Index >= index })
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
	for _, c := range s.chain(host) {
		if c.Ordinal >= keepOrdinal {
			break
		}
		if c.Pruned {
			continue
		}
		c.Pruned = true
		if !c.Superseded {
			records++
			units += c.DeltaUnits
		}
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

// Counters walks the chains and aggregates transfer activity.
func (s *Store) Counters() Counters {
	var c Counters
	for _, chain := range s.chains {
		for _, r := range chain {
			c.Checkpoints++
			if r.DeltaUnits >= s.model.FullState {
				c.FullTransfers++
			} else {
				c.DeltaTransfers++
			}
			c.WirelessUnits += r.DeltaUnits
			if r.FetchUnits > 0 {
				c.Fetches++
				c.WiredUnits += r.FetchUnits
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
