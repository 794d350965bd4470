package pool_bad

import "mobile"

func useAfterRecycle(n *mobile.Network, m *mobile.Message) uint64 {
	n.Recycle(m)
	return m.ID // want "m is used after being recycled"
}

type holder struct {
	last *mobile.Message
}

func retainInField(h *holder, m *mobile.Message) {
	h.last = m // want "stored in field h.last escapes the delivery path"
}

var lastSeen *mobile.Message

func retainInGlobal(m *mobile.Message) {
	lastSeen = m // want "stored in package-level variable lastSeen escapes the delivery path"
}

type ring struct {
	slots []*mobile.Message
}

func retainInElement(r *ring, i int, m *mobile.Message) {
	r.slots[i] = m // want "escapes the delivery path"
}

func retainInClosure(m *mobile.Message) func() uint64 {
	return func() uint64 {
		return m.ID // want "captured by a closure that may outlive delivery"
	}
}

func leak(n *mobile.Network, id mobile.HostID) uint64 {
	m := n.TryReceive(id) // want "neither recycled, stored, nor passed on"
	if m == nil {
		return 0
	}
	return m.ID
}
