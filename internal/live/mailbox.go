package live

import "sync"

// mailbox is an unbounded FIFO of packets: the cluster's links. A
// station must never block on a host that is slow, moving, disconnected
// or retired (the MSS buffers for it, §2.1), so put never blocks. A
// channel gives that only when it is sized for the worst case of the
// whole run up front — memory proportional to the run length, per link,
// whether or not one packet is ever queued; the mailbox instead holds
// what was put since it last ran empty and grows when that grows.
//
// mu is a leaf lock: no mailbox method calls out while holding it, and
// nothing is ever acquired after it. Hosts and stations put and take
// without holding the cluster's lock, and the depth gauges read a
// mailbox's length holding nothing else.
type mailbox struct {
	mu sync.Mutex

	// q[head:] are the queued packets, oldest first; q[:head] are popped
	// slots, already cleared. When the last packet is popped the slice is
	// reset to q[:0], so the array is reused and holds at most what was
	// put since the queue was last empty (a few hundred packets on the
	// bench's clusters: links run empty all the time).
	//
	//guard:mu
	q []packet

	//guard:mu
	head int

	//guard:mu
	closed bool

	// nonEmpty wakes the blocking get; its Locker is mu.
	//
	//guard:none sync.Cond synchronizes itself; L is set once by newMailbox
	nonEmpty sync.Cond
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.nonEmpty.L = &m.mu
	return m
}

// put appends ps, adjacent and in order: no other producer's packet
// lands between them (a station puts a packet and its duplicate this
// way, which is what lets a host's dupFilter remember one id).
// It never blocks. One Signal covers any number of packets: a mailbox
// has one consumer, and get only waits on an empty queue.
func (m *mailbox) put(ps ...packet) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		panic("live: put on a closed mailbox")
	}
	m.q = append(m.q, ps...)
	m.mu.Unlock()
	m.nonEmpty.Signal()
}

// pop removes the oldest packet; the caller has checked that one is
// queued. The slot is cleared so the array does not keep a delivered
// frame alive.
//
//locks:held mu
func (m *mailbox) pop() packet {
	p := m.q[m.head]
	m.q[m.head] = packet{}
	m.head++
	if m.head == len(m.q) {
		m.q, m.head = m.q[:0], 0
	}
	return p
}

// tryGet removes and returns the oldest packet, or reports false when
// nothing is queued.
func (m *mailbox) tryGet() (packet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.q) {
		return packet{}, false
	}
	return m.pop(), true
}

// get removes and returns the oldest packet, waiting for one if nothing
// is queued. It reports false once the mailbox is closed and drained.
func (m *mailbox) get() (packet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.q) && !m.closed {
		m.nonEmpty.Wait()
	}
	if m.head == len(m.q) {
		return packet{}, false
	}
	return m.pop(), true
}

// close ends the stream: get drains what is queued and then reports
// false. Only the side that owns the producers' lifetime closes, after
// they have all finished.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.nonEmpty.Broadcast()
}

// len returns the number of queued packets.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q) - m.head
}
