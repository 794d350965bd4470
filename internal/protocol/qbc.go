package protocol

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// QBC is the index-based protocol of Quaglia, Baldoni and Ciciani (§4.2),
// an optimization of BCS. Each host additionally tracks a receive number
// rn_i = the largest index received on application messages. When a
// basic checkpoint must be taken:
//
//   - if rn_i = sn_i, the host's state may depend on a checkpoint with
//     index sn_i on another host, so the index is incremented as in BCS;
//   - if rn_i < sn_i, the new checkpoint depends on nothing at index
//     sn_i, so it keeps index sn_i and *replaces* its predecessor in the
//     recovery line (the checkpoint-equivalence rule of [6,14]).
//
// Keeping indices low slows their divergence across hosts, which directly
// reduces the number of forced checkpoints — the effect the paper
// measures (up to 23% fewer checkpoints than BCS in heterogeneous,
// disconnecting environments).
type QBC struct {
	indexed
	// store is consulted to mark replaced checkpoints as superseded; it
	// may be nil when the environment does not track supersession.
	store *storage.Store
	rn    []int
	// replacements counts the basic checkpoints that replaced their
	// predecessor.
	replacements int64
}

// NewQBC creates a QBC instance for n hosts. store may be nil; when
// non-nil it must be the same store ckpt records into, so equivalence
// replacements can supersede the records they replace.
func NewQBC(n int, ckpt Checkpointer, store *storage.Store) *QBC {
	q := &QBC{indexed: newIndexed("QBC", n, ckpt), store: store, rn: make([]int, n)}
	for i := range q.rn {
		q.rn[i] = -1
	}
	return q
}

// Init implements Protocol: sn_i = 0, rn_i = -1, initial checkpoint at
// index 0.
func (q *QBC) Init() {
	for i := range q.rn {
		q.rn[i] = -1
	}
	q.indexed.Init()
}

// OnDeliver implements Protocol: the receive number tracks the maximum
// received index; the forcing rule is BCS's.
func (q *QBC) OnDeliver(h, from mobile.HostID, pb any) {
	msn := int(pb.(IndexPiggyback))
	if msn > q.rn[h] {
		q.rn[h] = msn
	}
	q.force(h, msn)
}

// basic takes a basic checkpoint applying the equivalence rule.
func (q *QBC) basic(h mobile.HostID) {
	if q.rn[h] >= q.sn[h] {
		q.bump(h)
		return
	}
	rec := q.ckpt(h, q.sn[h], storage.Basic)
	q.replacements++
	if q.store != nil {
		q.store.Supersede(rec)
	}
}

// OnCellSwitch implements Protocol.
func (q *QBC) OnCellSwitch(h mobile.HostID, newMSS mobile.MSSID) { q.basic(h) }

// OnDisconnect implements Protocol.
func (q *QBC) OnDisconnect(h mobile.HostID) { q.basic(h) }

// OnJoin implements Protocol (free, as for BCS).
func (q *QBC) OnJoin(h mobile.HostID) int64 {
	q.rn = append(q.rn, -1)
	return q.indexed.OnJoin(h)
}

// ReceiveNumber returns host h's current receive number.
func (q *QBC) ReceiveNumber(h mobile.HostID) int { return q.rn[h] }

// Replacements returns how many basic checkpoints replaced their
// predecessor instead of opening a new index (the benefit of the
// equivalence rule; tracked for the ablation bench).
func (q *QBC) Replacements() int64 { return q.replacements }
