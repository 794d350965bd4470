package pool_ok

import "mobile"

// Read everything first, recycle last: the disciplined delivery path.
func deliver(n *mobile.Network, id mobile.HostID) uint64 {
	m := n.TryReceive(id)
	if m == nil {
		return 0
	}
	v := m.ID
	n.Recycle(m)
	return v
}

// Handing the message to another function transfers ownership.
func handoff(n *mobile.Network, id mobile.HostID, sink func(*mobile.Message)) {
	m := n.TryReceive(id)
	sink(m)
}

// Returning the message transfers ownership to the caller.
func take(n *mobile.Network, id mobile.HostID) *mobile.Message {
	return n.TryReceive(id)
}

func takeBound(n *mobile.Network, id mobile.HostID) *mobile.Message {
	m := n.TryReceive(id)
	return m
}

// Reassignment after Recycle starts a fresh message: no stale use.
func refill(n *mobile.Network, a, b mobile.HostID) {
	m := n.TryReceive(a)
	n.Recycle(m)
	m = n.TryReceive(b)
	n.Recycle(m)
}

// An immediately invoked closure runs before delivery completes.
func inline(m *mobile.Message) uint64 {
	return func() uint64 { return m.ID }()
}

// Recycling literal nil tracks nothing: later nil mentions are not
// "uses" of a recycled buffer.
func nilRecycle(n *mobile.Network, id mobile.HostID) {
	n.Recycle(nil)
	m := n.TryReceive(id)
	if m == nil {
		return
	}
	n.Recycle(m)
}
