package mobile

import (
	"fmt"

	"mobickpt/internal/des"
)

// SwitchCell performs the hand-off of host id from its current cell to
// station to. Per §5.1 the hand-off protocol sends two control messages:
// one to the station being left, one to the station becoming current.
// The OnCellSwitch hook fires after the move (the point where protocols
// take a basic checkpoint).
func (n *Network) SwitchCell(id HostID, to MSSID) error {
	h := n.host(id)
	if !h.connected {
		return fmt.Errorf("mobile: host %d cannot switch cells while disconnected", id)
	}
	if to < 0 || int(to) >= len(n.stations) {
		return fmt.Errorf("mobile: host %d switching to unknown station %d", id, to)
	}
	from := h.mss
	if to == from {
		return fmt.Errorf("mobile: host %d switching to its current station %d", id, to)
	}

	// Two hand-off control messages (leave + join), each over wireless.
	c := &n.counters[n.lane(id)].Counters
	c.CtrlMessages += 2
	c.WirelessHops += 2

	n.stations[from].members--
	n.stations[to].members++
	h.mss = to
	h.lastMSS = to
	h.switches++
	n.updateLocation(id, to)

	if n.hooks.OnCellSwitch != nil {
		n.hooks.OnCellSwitch(n.sched.Now(int(id)), h, from, to)
	}
	return nil
}

// Disconnect voluntarily detaches host id from the network. Per §5.1 the
// disconnection protocol sends one control message to the current MSS.
// While disconnected the host executes no send/receive operations and
// arriving messages park at the MSS. The OnDisconnect hook fires at the
// moment of detachment (the point where protocols take the basic
// checkpoint that will represent the host in every recovery line
// collected during the disconnection, §2.2).
func (n *Network) Disconnect(id HostID) error {
	h := n.host(id)
	if !h.connected {
		return fmt.Errorf("mobile: host %d is already disconnected", id)
	}
	c := &n.counters[n.lane(id)].Counters
	c.CtrlMessages++
	c.WirelessHops++

	n.stations[h.mss].members--
	h.lastMSS = h.mss
	h.mss = NoMSS
	h.connected = false
	h.disconnects++

	if n.hooks.OnDisconnect != nil {
		n.hooks.OnDisconnect(n.sched.Now(int(id)), h)
	}
	return nil
}

// Reconnect reattaches host id at station at. Messages parked during the
// disconnection are flushed to the host's inbox: those parked at another
// station pay one wired forwarding hop, and all pay the downlink, so they
// become receivable shortly after reconnection. The OnReconnect hook
// fires immediately.
func (n *Network) Reconnect(id HostID, at MSSID) error {
	h := n.host(id)
	if h.connected {
		return fmt.Errorf("mobile: host %d is already connected", id)
	}
	if at < 0 || int(at) >= len(n.stations) {
		return fmt.Errorf("mobile: host %d reconnecting at unknown station %d", id, at)
	}
	c := &n.counters[n.lane(id)].Counters
	c.CtrlMessages++
	c.WirelessHops++

	h.mss = at
	h.connected = true
	n.stations[at].members++
	n.updateLocation(id, at)

	parked := h.parked
	h.parked = nil
	for _, m := range parked {
		var delay des.Time
		if h.lastMSS != at {
			// The parked messages follow the host over the wired network.
			delay = n.cfg.WiredLatency
			c.WiredHops++
			m.Hops++
		}
		// Ride the pooled arrive trampoline (the target station travels
		// in m.route) instead of allocating one closure per parked
		// message — reconnect storms at large n stay allocation-free.
		// Parked messages are addressed to this host, so the flush is a
		// self-schedule on its own timeline.
		m.route = int32(at)
		n.sched.ScheduleArgAfter(int(id), delay, "flush-parked", n.arriveFn, m)
	}
	h.lastMSS = at

	if n.hooks.OnReconnect != nil {
		n.hooks.OnReconnect(n.sched.Now(int(id)), h, at)
	}
	return nil
}
