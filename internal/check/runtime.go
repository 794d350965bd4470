package check

import (
	"fmt"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// family selects which rule set a protocol is checked against.
type family int

const (
	// plain protocols (UNC, CL, PS) take no communication-induced
	// checkpoints: mobility events append Basic records, markers append
	// Forced ones, deliveries append nothing.
	plain family = iota
	// index protocols (BCS, MS) follow the strict sequence-number rules.
	index
	// equiv is QBC: the index rules plus the checkpoint-equivalence rule.
	equiv
	// twophase is TP: Russell's receive-after-send forcing rule.
	twophase
)

// sequencer is the introspection surface the index protocols expose.
type sequencer interface {
	SequenceNumber(h mobile.HostID) int
}

// maxViolations bounds the per-protocol violation list; a systematically
// broken run would otherwise accumulate one entry per event.
const maxViolations = 64

// Runtime asserts one protocol's invariants as a world drives it. The
// protocol side hands it every event of the protocol (After) once the
// protocol has processed it; the checker replays the event against its
// own shadow model of the protocol state and compares model, live
// protocol state and stable-storage chains after every step.
type Runtime struct {
	proto string
	store *storage.Store
	now   func() des.Time
	fam   family

	seq sequencer                                       // BCS/QBC/MS
	rcv interface{ ReceiveNumber(h mobile.HostID) int } // QBC
	tp  *protocol.TP                                    // TP

	sn        []int  // shadow sequence numbers (index, equiv)
	rn        []int  // shadow receive numbers (equiv)
	sendPhase []bool // shadow SEND-phase bits (twophase)
	chainLen  []int  // expected stable-storage chain length per host

	violations Violations
	dropped    int
}

// NewRuntime builds the invariant checker for one protocol slot. store
// must be the store the protocol's Checkpointer records into; now
// supplies the simulated clock for violation reports.
func NewRuntime(name string, p protocol.Protocol, store *storage.Store, now func() des.Time) *Runtime {
	r := &Runtime{proto: name, store: store, now: now, fam: plain}
	switch pp := p.(type) {
	case *protocol.BCS:
		r.fam, r.seq = index, pp
	case *protocol.MS:
		r.fam, r.seq = index, pp
	case *protocol.QBC:
		r.fam, r.seq, r.rcv = equiv, pp, pp
	case *protocol.TP:
		r.fam, r.tp = twophase, pp
	}
	return r
}

// violate records one broken invariant (bounded by maxViolations).
func (r *Runtime) violate(h mobile.HostID, rule, detail string) {
	if len(r.violations) >= maxViolations {
		r.dropped++
		return
	}
	r.violations = append(r.violations, &Violation{
		Protocol: r.proto, Host: h, Time: r.now(), Rule: rule, Detail: detail,
	})
}

func (r *Runtime) violatef(h mobile.HostID, rule, format string, args ...any) {
	r.violate(h, rule, fmt.Sprintf(format, args...))
}

// expectRecord asserts that the event appended exactly one checkpoint of
// the given kind (and index, unless index < 0) to host h's chain. It
// returns the appended record, or nil when the chain disagrees.
func (r *Runtime) expectRecord(h mobile.HostID, kind storage.Kind, index int, rule string) *storage.Record {
	chain := r.store.Chain(h)
	r.chainLen[h]++
	if len(chain) != r.chainLen[h] {
		r.violatef(h, rule, "expected a %s checkpoint to be recorded (chain has %d records, model expects %d)",
			kind, len(chain), r.chainLen[h])
		r.chainLen[h] = len(chain) // resync so one bug reports once
		return nil
	}
	rec := chain[len(chain)-1]
	if rec.Kind != kind {
		r.violatef(h, rule, "checkpoint %s has kind %s, want %s", rec.ID(), rec.Kind, kind)
	}
	if index >= 0 && int(rec.Index) != index {
		r.violatef(h, rule, "checkpoint %s has index %d, want %d", rec.ID(), rec.Index, index)
	}
	if mobile.HostID(rec.Host) != h {
		r.violatef(h, rule, "checkpoint %s recorded under host %d", rec.ID(), rec.Host)
	}
	return rec
}

// expectNoRecord asserts that the event did not checkpoint host h.
func (r *Runtime) expectNoRecord(h mobile.HostID, rule string) {
	if chain := r.store.Chain(h); len(chain) != r.chainLen[h] {
		r.violatef(h, rule, "unexpected checkpoint %s (model expects no checkpoint here)",
			chain[len(chain)-1].ID())
		r.chainLen[h] = len(chain)
	}
}

// checkSeq compares the live protocol's sequence number with the shadow
// model (monotonicity is implied: the shadow never decreases).
func (r *Runtime) checkSeq(h mobile.HostID, rule string) {
	if r.seq == nil {
		return
	}
	if got := r.seq.SequenceNumber(h); got != r.sn[h] {
		r.violatef(h, rule, "sn = %d, invariant model expects %d", got, r.sn[h])
	}
	if r.rcv != nil {
		got := r.rcv.ReceiveNumber(h)
		if got != r.rn[h] {
			r.violatef(h, rule, "rn = %d, invariant model expects %d", got, r.rn[h])
		}
		if got > r.seq.SequenceNumber(h) {
			r.violatef(h, rule, "rn %d exceeds sn %d (equivalence invariant rn <= sn)",
				got, r.seq.SequenceNumber(h))
		}
	}
}

// checkTPMeta asserts the dependency vectors recorded with rec are
// well-formed: present, own entry equal to the checkpoint index, and
// LOC naming, for every finite dependency, the station the store holds
// that checkpoint at. The store records what the checkpointer was told,
// independently of the station table TP derives LOC from.
func (r *Runtime) checkTPMeta(h mobile.HostID, rec *storage.Record, rule string) {
	if r.tp == nil || rec == nil {
		return
	}
	meta, ok := r.tp.Meta(rec)
	if !ok {
		r.violatef(h, rule, "checkpoint %s has no recorded dependency vectors", rec.ID())
		return
	}
	if meta.Ckpt[h] != int(rec.Index) {
		r.violatef(h, rule, "checkpoint %s: CKPT own entry %d != index %d", rec.ID(), meta.Ckpt[h], rec.Index)
	}
	for j, k := range meta.Ckpt {
		if k < 0 {
			continue
		}
		// A TP host's checkpoint indices count up from 0: index k is
		// position k of its chain.
		chain := r.store.Chain(mobile.HostID(j))
		if k >= len(chain) || int(chain[k].Index) != k {
			r.violatef(h, rule, "checkpoint %s: depends on host %d interval %d, which the store does not hold",
				rec.ID(), j, k)
		} else if meta.Loc[j] != int(chain[k].MSS) {
			r.violatef(h, rule, "checkpoint %s: LOC places host %d interval %d at station %d, the store at %d",
				rec.ID(), j, k, meta.Loc[j], chain[k].MSS)
		}
	}
}

// AfterInit is called once, after the protocol's Init: every host must
// hold exactly its initial checkpoint.
func (r *Runtime) AfterInit(n int) {
	r.sn = make([]int, n)
	r.rn = make([]int, n)
	r.sendPhase = make([]bool, n)
	r.chainLen = make([]int, n)
	for i := range r.rn {
		r.rn[i] = -1
	}
	for h := 0; h < n; h++ {
		rec := r.expectRecord(mobile.HostID(h), storage.Initial, 0, "init")
		r.checkSeq(mobile.HostID(h), "init")
		r.checkTPMeta(mobile.HostID(h), rec, "init")
	}
}

// After checks ev, an event of this protocol's, once the protocol has
// processed it; pb is the piggyback of a send or a delivery, else nil.
func (r *Runtime) After(ev trace.Event, pb any) {
	h := mobile.HostID(ev.Host)
	switch ev.Kind {
	case trace.Send:
		r.afterSend(h, pb)
	case trace.Deliver:
		r.afterDeliver(h, pb)
	case trace.Handoff:
		r.afterBasic(h, "basic-handoff")
	case trace.Disconnect:
		r.afterBasic(h, "basic-disconnect")
	case trace.Tick:
		r.afterBasic(h, "basic-tick")
	case trace.Reconnect: // the disconnection checkpoint still represents the host
		r.expectNoRecord(h, "reconnect")
	case trace.Join:
		if int(h) != len(r.chainLen) {
			r.violatef(h, "join", "non-dense join: model tracks %d hosts", len(r.chainLen))
			return
		}
		r.sn = append(r.sn, 0)
		r.rn = append(r.rn, -1)
		r.sendPhase = append(r.sendPhase, false)
		r.chainLen = append(r.chainLen, 0)
		rec := r.expectRecord(h, storage.Initial, 0, "join")
		r.checkSeq(h, "join")
		r.checkTPMeta(h, rec, "join")
	case trace.Marker:
		if r.fam != plain {
			r.violate(h, "marker", "marker delivered to a communication-induced protocol")
			return
		}
		r.expectRecord(h, storage.Forced, -1, "marker")
	}
}

// asTPPiggyback accepts both forms a TP piggyback travels in: the view
// the simulation delivers and the dense value decoded from the wire.
func asTPPiggyback(pb any) (protocol.TPPiggyback, bool) {
	switch v := pb.(type) {
	case *protocol.TPView:
		return v.Dense(), true
	case protocol.TPPiggyback:
		return v, true
	}
	return protocol.TPPiggyback{}, false
}

// afterSend checks a send whose OnSend returned piggyback pb.
func (r *Runtime) afterSend(from mobile.HostID, pb any) {
	r.expectNoRecord(from, "send")
	switch r.fam {
	case index, equiv:
		msn, ok := pb.(protocol.IndexPiggyback)
		if !ok {
			r.violatef(from, "piggyback", "send piggyback is %T, want IndexPiggyback", pb)
			return
		}
		if int(msn) != r.sn[from] {
			r.violatef(from, "piggyback", "send carries sn %d, sender holds sn %d", int(msn), r.sn[from])
		}
		r.checkSeq(from, "piggyback")
	case twophase:
		p, ok := asTPPiggyback(pb)
		if !ok {
			r.violatef(from, "piggyback", "send piggyback is %T, want TPPiggyback", pb)
			return
		}
		if last := r.store.Latest(from); last != nil && p.Ckpt[from] != int(last.Index) {
			r.violatef(from, "piggyback", "send carries own interval %d, latest checkpoint has index %d",
				p.Ckpt[from], last.Index)
		}
		r.sendPhase[from] = true
		if r.tp.PhaseOf(from) != protocol.SEND {
			r.violate(from, "two-phase", "host not in SEND phase after a send")
		}
	}
}

// afterDeliver checks a delivery whose OnDeliver processed piggyback pb on
// host h.
func (r *Runtime) afterDeliver(h mobile.HostID, pb any) {
	switch r.fam {
	case plain:
		r.expectNoRecord(h, "deliver")
	case index, equiv:
		ipb, ok := pb.(protocol.IndexPiggyback)
		if !ok {
			r.violatef(h, "piggyback", "delivered piggyback is %T, want IndexPiggyback", pb)
			return
		}
		msn := int(ipb)
		if r.fam == equiv && msn > r.rn[h] {
			r.rn[h] = msn
		}
		if msn > r.sn[h] {
			// Forcing rule: a message from the future forces a checkpoint
			// with the sender's index, before the message is processed.
			r.sn[h] = msn
			r.expectRecord(h, storage.Forced, msn, "forcing-rule")
		} else {
			r.expectNoRecord(h, "forcing-rule")
		}
		r.checkSeq(h, "forcing-rule")
	case twophase:
		if r.sendPhase[h] {
			rec := r.expectRecord(h, storage.Forced, -1, "two-phase")
			r.checkTPMeta(h, rec, "two-phase")
			r.sendPhase[h] = false
		} else {
			r.expectNoRecord(h, "two-phase")
		}
		if got := r.tp.PhaseOf(h) == protocol.SEND; got != r.sendPhase[h] {
			r.violatef(h, "two-phase", "phase %v, invariant model expects SEND=%v", r.tp.PhaseOf(h), r.sendPhase[h])
		}
	}
}

// afterBasic checks one mobility- or timer-driven basic checkpoint.
func (r *Runtime) afterBasic(h mobile.HostID, rule string) {
	switch r.fam {
	case plain:
		r.expectRecord(h, storage.Basic, -1, rule)
	case index:
		r.sn[h]++
		r.expectRecord(h, storage.Basic, r.sn[h], rule)
		r.checkSeq(h, rule)
	case equiv:
		// Equivalence rule: replacement iff rn < sn — the new basic
		// checkpoint depends on nothing at index sn, so it supersedes its
		// same-index predecessor instead of opening a new index.
		replaced := r.rn[h] < r.sn[h]
		if !replaced {
			r.sn[h]++
		}
		rec := r.expectRecord(h, storage.Basic, r.sn[h], "equivalence-rule")
		if replaced && rec != nil {
			chain := r.store.Chain(h)
			for i := len(chain) - 2; i >= 0; i-- {
				c := chain[i]
				if c.Superseded || c.Pruned {
					continue
				}
				if c.Index == rec.Index {
					r.violatef(h, "equivalence-rule",
						"replacement %s left its predecessor C_%d,%d live", rec.ID(), c.Host, c.Ordinal)
				}
				break // first live predecessor settles it: live indices increase
			}
		}
		r.checkSeq(h, "equivalence-rule")
	case twophase:
		rec := r.expectRecord(h, storage.Basic, -1, rule)
		r.checkTPMeta(h, rec, rule)
	}
}

// Finish runs the end-of-run reconciliation: engine counters vs
// stable-storage chains, and per-host chain well-formedness (live
// indices strictly increasing for the index-based protocols, dependency
// metadata present for TP). counts is the engine's per-host checkpoint
// tally. It returns every violation of the run.
func (r *Runtime) Finish(counts []int) Violations {
	for h := range r.chainLen {
		chain := r.store.Chain(mobile.HostID(h))
		if len(chain) != r.chainLen[h] {
			r.violatef(mobile.HostID(h), "reconcile",
				"store holds %d records, event model expects %d", len(chain), r.chainLen[h])
		}
		if h < len(counts) && counts[h] != len(chain) {
			r.violatef(mobile.HostID(h), "reconcile",
				"engine counted %d checkpoints, store holds %d", counts[h], len(chain))
		}
		if r.fam == index || r.fam == equiv {
			prev := -1
			for _, c := range chain {
				if c.Superseded || c.Pruned {
					continue
				}
				if int(c.Index) <= prev {
					r.violatef(mobile.HostID(h), "index-monotonic",
						"live checkpoint %s does not increase the index (previous live index %d)", c.ID(), prev)
				}
				prev = int(c.Index)
			}
		}
		if r.fam == twophase {
			for _, c := range chain {
				r.checkTPMeta(mobile.HostID(h), c, "vector-meta")
			}
		}
	}
	if r.dropped > 0 {
		r.violations = append(r.violations, &Violation{
			Protocol: r.proto, Time: r.now(), Rule: "reconcile",
			Detail: fmt.Sprintf("%d further violations suppressed", r.dropped),
		})
	}
	return r.violations
}
