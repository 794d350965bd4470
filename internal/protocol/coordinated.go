package protocol

import (
	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// marked is the local core plus the marker side the coordinated
// baselines share: a delivered marker forces a checkpoint, and every
// marker and membership notification counts as a control message.
type marked struct {
	local
	ctrl int64
}

// OnMarker implements Initiator: the marker forces a checkpoint.
func (m *marked) OnMarker(h mobile.HostID) { m.take(h, storage.Forced) }

// ControlMessages implements Initiator.
func (m *marked) ControlMessages() int64 { return m.ctrl }

// OnJoin implements Protocol: the initiator must learn about the new
// member (one control message) so future snapshots include it.
func (m *marked) OnJoin(h mobile.HostID) int64 {
	m.local.OnJoin(h)
	m.ctrl++
	return 1
}

// ChandyLamport is a coordinated marker-based protocol in the style of
// [8], simplified to the aspects the paper evaluates qualitatively in §2:
// a periodic initiator sends a marker control message to *every* host
// (requiring one location search per mobile host — the paper's drawback
// (1)), and the arrival of a marker forces a local checkpoint (drawbacks
// (2) and (4): every host pays, whether or not it communicated).
//
// The environment drives the snapshot schedule: it calls BeginSnapshot
// every period and OnMarker when each marker is delivered. Basic
// checkpoints at hand-offs and disconnections are still mandatory — they
// come from the mobile model, not from the protocol. Nothing rides on
// application messages (the cost is in control messages instead).
type ChandyLamport struct{ marked }

// NewChandyLamport creates an instance for n hosts.
func NewChandyLamport(n int, ckpt Checkpointer) *ChandyLamport {
	return &ChandyLamport{marked{local: newLocal("CL", n, ckpt)}}
}

// BeginSnapshot implements Initiator: markers go to all hosts.
func (c *ChandyLamport) BeginSnapshot() []mobile.HostID {
	targets := make([]mobile.HostID, len(c.next))
	for i := range targets {
		targets[i] = mobile.HostID(i)
	}
	c.ctrl += int64(len(targets))
	return targets
}

// PrakashSinghal refines the coordinated baseline as in [13]: only the
// hosts that have established causal dependencies since the previous
// coordination (here: sent or received an application message) are
// involved in the snapshot, answering the paper's drawback (4) while
// still paying location searches and control messages for the involved
// subset. Its piggyback is zero in this simplified model (the real
// protocol carries dependency bits; the paper's point is that its data
// structures are still O(n)).
type PrakashSinghal struct {
	marked
	dirty []bool
}

// NewPrakashSinghal creates an instance for n hosts.
func NewPrakashSinghal(n int, ckpt Checkpointer) *PrakashSinghal {
	return &PrakashSinghal{marked: marked{local: newLocal("PS", n, ckpt)}, dirty: make([]bool, n)}
}

// OnSend implements Protocol: the sender joins the dirty set.
func (p *PrakashSinghal) OnSend(from, to mobile.HostID) any {
	p.dirty[from] = true
	return nil
}

// OnDeliver implements Protocol: the receiver joins the dirty set.
func (p *PrakashSinghal) OnDeliver(h, from mobile.HostID, pb any) {
	p.dirty[h] = true
}

// BeginSnapshot implements Initiator: markers go to the dirty subset,
// which is then reset for the next round.
func (p *PrakashSinghal) BeginSnapshot() []mobile.HostID {
	var targets []mobile.HostID
	for i, d := range p.dirty {
		if d {
			targets = append(targets, mobile.HostID(i))
			p.dirty[i] = false
		}
	}
	p.ctrl += int64(len(targets))
	return targets
}

// OnJoin implements Protocol: as for CL, the initiator learns about the
// new member with one control message.
func (p *PrakashSinghal) OnJoin(h mobile.HostID) int64 {
	ctrl := p.marked.OnJoin(h)
	p.dirty = append(p.dirty, false)
	return ctrl
}
