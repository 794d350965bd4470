// Package mobile is the scratch module's stub of the pooled message
// envelope, so the seeded poollint violation type-checks without the
// real repository.
package mobile

type Message struct{ ID uint64 }

type Network struct{}

func (n *Network) Recycle(m *Message) {}
