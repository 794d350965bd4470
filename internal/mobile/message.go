package mobile

import (
	"fmt"

	"mobickpt/internal/des"
)

// Message is an application message in flight or queued for delivery.
// Payload is opaque to the network. The simulator's messages carry none:
// the protocol side keeps each message's piggybacked control information
// (sequence numbers for BCS/QBC, dependency vectors for TP) itself.
type Message struct {
	ID        uint64
	From, To  HostID
	SentAt    des.Time
	ArrivedAt des.Time // when it became available at the recipient's MSS
	Payload   any
	Hops      int // total hops traversed (wireless + wired), for cost models

	// route is the station the in-flight message is headed to (the
	// argument of its pending arrive/downlink event), so one long-lived
	// handler serves every hop without per-hop closures.
	route MSSID
}

func (m *Message) String() string {
	return fmt.Sprintf("msg#%d %d->%d sent=%.3f", m.ID, m.From, m.To, m.SentAt)
}

// reserveWireless books one transmission slot on station st's wireless
// channel and returns its completion time. Without contention modeling
// the channel has infinite capacity and the slot completes one
// WirelessLatency from now; with contention (Config.Contention) each
// cell is a FIFO server — concurrent transmissions queue, which is the
// "high channel contention" of §2.1 point (b). Queueing time is
// accumulated in Counters.ContentionDelay.
// lane is the executing lane (the shard for the hop counters) and now
// the executing timeline's current time.
func (n *Network) reserveWireless(st MSSID, lane int, now des.Time) des.Time {
	c := &n.counters[lane].Counters
	c.WirelessHops++

	// At-least-once loss model: each attempt is lost independently; the
	// sender retries after the timeout, so a hop with k losses costs
	// k*(latency+timeout) extra. The hop always completes eventually
	// (LossProbability < 1). The shared variate stream keeps this model
	// sequential-only (NewSched rejects it for lanes > 1).
	var retryCost des.Time
	if n.cfg.LossProbability > 0 && n.loss != nil {
		for n.loss.Bernoulli(n.cfg.LossProbability) {
			c.Retransmissions++
			retryCost += n.cfg.WirelessLatency + n.cfg.RetransmitTimeout
		}
	}

	if !n.cfg.Contention {
		return now + retryCost + n.cfg.WirelessLatency
	}
	start := now
	if n.busy[st] > start {
		start = n.busy[st]
	}
	end := start + retryCost + n.cfg.WirelessLatency
	n.busy[st] = end
	c.ContentionDelay += start - now
	return end
}

// Send transmits an application message from one host to another. The
// sender must be connected (a disconnected MH cannot transmit). The
// message takes the uplink into the sender's cell, crosses the wired
// network if the recipient is in another cell, and then takes the
// recipient cell's downlink into the host's inbox, where it waits for a
// receive operation. If the recipient is disconnected on arrival the
// message parks at the MSS until reconnection (the at-least-once
// transport of §3 never loses messages); if it moved, the message
// chases it over the wired network.
//
// It returns the message so callers (the trace recorder) can observe ids.
func (n *Network) Send(from, to HostID, payload any) (*Message, error) {
	src := n.host(from)
	if !src.connected {
		return nil, fmt.Errorf("mobile: host %d cannot send while disconnected", from)
	}
	if from == to {
		return nil, fmt.Errorf("mobile: host %d sending to itself", from)
	}
	lane := n.lane(from) // Send executes on the sender's timeline
	var m *Message
	free := n.msgFree[lane]
	if k := len(free); k > 0 {
		m = free[k-1]
		free[k-1] = nil
		n.msgFree[lane] = free[:k-1]
		*m = Message{}
		if n.poolProbe != nil {
			n.poolProbe[lane].Hits++
		}
	} else {
		m = &Message{}
		if n.poolProbe != nil {
			n.poolProbe[lane].Misses++
		}
	}
	now := n.sched.Now(int(from))
	m.ID = n.nextMsg.Add(1) - 1
	m.From = from
	m.To = to
	m.SentAt = now
	m.Payload = payload
	n.counters[lane].AppMessages++

	// Uplink into the sender's cell.
	m.Hops++
	atMSS := n.reserveWireless(src.mss, lane, now)

	// The sender's MSS locates the recipient and forwards over the wired
	// network if the recipient is (believed to be) in another cell.
	dstMSS := n.locateFrom(to, lane)
	if dstMSS != src.mss {
		n.counters[lane].WiredHops++
		m.Hops++
		atMSS += n.cfg.WiredLatency
	}

	// The arrival runs on the recipient's timeline; the uplink latency is
	// the wireless lookahead bound every cross-lane hop respects.
	m.route = dstMSS
	n.sched.Route(int(from), int(to), atMSS, "at-mss", n.arriveFn, m)
	return m, nil
}

// arrive lands message m at station at. If the recipient has moved the
// message chases it with one more wired hop; if the recipient is
// disconnected it parks; otherwise it takes the cell's downlink and is
// appended to the inbox when the transmission completes.
func (n *Network) arrive(m *Message, at MSSID, now des.Time) {
	dst := n.host(m.To)
	lane := n.lane(m.To) // arrivals execute on the recipient's timeline
	if !dst.connected {
		m.ArrivedAt = now
		n.counters[lane].Parked++
		dst.parked = append(dst.parked, m)
		return
	}
	if dst.mss != at {
		// The host switched cells while the message was in flight: the
		// old MSS forwards it to the current one.
		c := &n.counters[lane].Counters
		c.Forwards++
		c.WiredHops++
		m.Hops++
		m.route = dst.mss
		n.sched.ScheduleArgAfter(int(m.To), n.cfg.WiredLatency, "forward", n.arriveFn, m)
		return
	}
	// Downlink into the recipient's cell.
	m.Hops++
	done := n.reserveWireless(at, lane, now)
	m.route = at
	n.sched.ScheduleArg(int(m.To), done, "downlink", n.downlinkFn, m)
}

// finishDownlink completes message m's downlink transmission into the
// cell of station m.route. The host may have moved or disconnected while
// the transmission was in progress; re-route if so.
func (n *Network) finishDownlink(m *Message, now des.Time) {
	dst := n.host(m.To)
	if !dst.connected || dst.mss != m.route {
		m.Hops-- // the failed downlink is re-attempted elsewhere
		n.arrive(m, m.route, now)
		return
	}
	m.ArrivedAt = now
	dst.inbox = append(dst.inbox, m)
}

// TryReceive performs a receive operation for host id: it delivers the
// earliest-arrived queued message, invoking the OnDeliver hook, and
// returns it. It returns nil when no message is waiting (the operation
// degenerates to an internal event, as in the workload model) or when the
// host is disconnected.
func (n *Network) TryReceive(id HostID) *Message {
	h := n.host(id)
	if !h.connected || h.inboxHead == len(h.inbox) {
		return nil
	}
	m := h.inbox[h.inboxHead]
	h.inbox[h.inboxHead] = nil
	h.inboxHead++
	switch {
	case h.inboxHead == len(h.inbox):
		// Drained: reuse the slice from the start.
		h.inbox = h.inbox[:0]
		h.inboxHead = 0
	case h.inboxHead >= 64 && 2*h.inboxHead >= len(h.inbox):
		// Mostly consumed: slide the live tail down so a never-empty
		// queue cannot grow the slice without bound. Amortized O(1) per
		// receive (each compaction is paid for by the receives since the
		// last one).
		live := copy(h.inbox, h.inbox[h.inboxHead:])
		clear(h.inbox[live:])
		h.inbox = h.inbox[:live]
		h.inboxHead = 0
	}
	n.counters[n.lane(id)].Delivered++
	if n.hooks.OnDeliver != nil {
		n.hooks.OnDeliver(n.sched.Now(int(id)), h, m)
	}
	return m
}

// Recycle hands a delivered message back for reuse by a later Send. It
// is an explicit opt-in for callers (the sim engine) that fully own the
// message once OnDeliver has run and retain no reference to it; callers
// that keep delivered messages simply never call Recycle.
// Recycle executes on the receiver's timeline, so the message returns to
// the receiver's lane's free list; the object migrates lanes with the
// traffic, which is fine — ownership travels with the message.
func (n *Network) Recycle(m *Message) {
	if m == nil {
		return
	}
	m.Payload = nil
	lane := n.lane(m.To)
	n.msgFree[lane] = append(n.msgFree[lane], m)
	if n.poolProbe != nil {
		n.poolProbe[lane].Recycled++
	}
}
