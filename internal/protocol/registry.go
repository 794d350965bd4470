package protocol

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// Constructor builds one protocol instance governing n hosts. ck records
// its checkpoints, store is the stable storage ck writes to (QBC reads
// its own chain back), and mssOf reports a host's current — or, while
// disconnected, last — station: protocols that track checkpoint
// locations (TP) need the real one, not a static guess, or their
// piggybacked location vectors go stale after the first hand-off. Every
// world hands over the protocol side's own table (protoside.Side.Station),
// the one ck records each checkpoint's station from.
type Constructor func(n int, ck Checkpointer, store *storage.Store, mssOf func(mobile.HostID) mobile.MSSID) Protocol

// Entry is one row of the registry: everything the environments need to
// know about a protocol before they hold an instance of it. Every entry
// runs in the simulator and in schedule replay.
type Entry struct {
	Name string
	New  Constructor
	// Coordinated protocols are driven by the environment's clock — marker
	// rounds (Initiator) or timer ticks (Periodic) every SnapshotPeriod —
	// so the simulator demands a positive period for them, and the live
	// cluster, which has no clock, refuses them.
	Coordinated bool
	// IndexBased protocols number their checkpoints so that every recovery
	// line is an index cut ("each host's first checkpoint with index >=
	// x"). That is what makes the stable-index frontier of
	// internal/recovery sound for them — checkpoint and message-log
	// garbage collection, the same-index recovery-line check — and
	// unsound for the rest, whose logs and chains therefore stay whole.
	IndexBased bool
}

// registry is the one name → constructor table of the module, in table
// order (the paper's three, then the baselines, then the extension).
// sim/diffreplay.go keeps the only other copy, on purpose: the replay
// oracle must not share a construction path with the cluster it checks.
var registry = []Entry{
	{Name: "TP", New: func(n int, ck Checkpointer, _ *storage.Store, mssOf func(mobile.HostID) mobile.MSSID) Protocol {
		return NewTP(n, ck, mssOf)
	}},
	{Name: "BCS", IndexBased: true, New: plain(NewBCS)},
	{Name: "QBC", IndexBased: true, New: func(n int, ck Checkpointer, store *storage.Store, _ func(mobile.HostID) mobile.MSSID) Protocol {
		return NewQBC(n, ck, store)
	}},
	{Name: "UNC", New: plain(NewUncoordinated)},
	{Name: "CL", Coordinated: true, New: plain(NewChandyLamport)},
	{Name: "PS", Coordinated: true, New: plain(NewPrakashSinghal)},
	{Name: "MS", Coordinated: true, IndexBased: true, New: plain(NewMS)},
}

// plain adapts the constructors that need neither the store nor the
// hosts' locations.
func plain[P Protocol](mk func(int, Checkpointer) P) Constructor {
	return func(n int, ck Checkpointer, _ *storage.Store, _ func(mobile.HostID) mobile.MSSID) Protocol {
		return mk(n, ck)
	}
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// IndexBased reports whether the named protocol's recovery lines are index
// cuts (Entry.IndexBased) — what makes stable-index garbage collection,
// pruning the message log at the recovery-line frontier and the
// same-index recovery-line check sound for it. An unknown name is not.
func IndexBased(name string) bool {
	e, _ := Lookup(name)
	return e.IndexBased
}
