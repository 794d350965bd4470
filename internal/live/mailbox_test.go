package live

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"mobickpt/internal/mobile"
)

// numbered is packet seq of producer p.
func numbered(p, seq int) packet {
	return packet{to: mobile.HostID(p), frame: binary.BigEndian.AppendUint64(nil, uint64(seq))}
}

// Several producers against one blocking consumer (a station and its
// senders): every packet arrives exactly once, each producer's packets
// in the order it put them, and get reports false only once the mailbox
// is closed and empty. Meaningful under -race.
func TestMailboxConcurrentFIFO(t *testing.T) {
	const producers, perProducer = 8, 5000
	m := newMailbox()

	next := make([]int, producers) // next seq expected from each producer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			pkt, ok := m.get()
			if !ok {
				return
			}
			p, seq := int(pkt.to), int(binary.BigEndian.Uint64(pkt.frame))
			if seq != next[p] {
				t.Errorf("producer %d: got seq %d, want %d", p, seq, next[p])
			}
			next[p] = seq + 1
		}
	}()

	var senders sync.WaitGroup
	for p := 0; p < producers; p++ {
		senders.Add(1)
		go func(p int) {
			defer senders.Done()
			for seq := 0; seq < perProducer; seq++ {
				m.put(numbered(p, seq))
			}
		}(p)
	}
	senders.Wait()
	m.close()
	consumer.Wait()

	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d packets arrived, want %d", p, n, perProducer)
		}
	}
	if m.len() != 0 {
		t.Errorf("%d packets left after the consumer saw the close", m.len())
	}
}

// Several stations duplicating into one downlink: a packet and its copy
// go in with one put, so every copy sits directly behind its original
// whatever the other producers do — the adjacency a host's dupFilter,
// which remembers one id, relies on. Put as two calls, the pair is split by
// another producer's packet within a few thousand puts.
func TestMailboxPutKeepsCopiesAdjacent(t *testing.T) {
	const producers, perProducer = 8, 5000
	m := newMailbox()
	var senders sync.WaitGroup
	for p := 0; p < producers; p++ {
		senders.Add(1)
		go func(p int) {
			defer senders.Done()
			for seq := 0; seq < perProducer; seq++ {
				pkt := numbered(p, seq)
				m.put(pkt, pkt)
			}
		}(p)
	}
	senders.Wait()

	if m.len() != 2*producers*perProducer {
		t.Fatalf("%d packets queued, want %d", m.len(), 2*producers*perProducer)
	}
	for m.len() > 0 {
		orig, _ := m.tryGet()
		dup, _ := m.tryGet()
		if orig.to != dup.to || !bytes.Equal(orig.frame, dup.frame) {
			t.Fatalf("producer %d seq %d is followed by producer %d seq %d, not by its copy",
				orig.to, binary.BigEndian.Uint64(orig.frame), dup.to, binary.BigEndian.Uint64(dup.frame))
		}
	}
}

// The polling side (a host and its downlink): tryGet on an empty mailbox
// reports false without waiting; put with nobody receiving — the host is
// slow, disconnected or retired — returns at once however much is
// queued; what was queued comes out in order across the slice's growth
// and its reset when the queue runs empty; and a popped slot no longer
// references its frame.
func TestMailboxPolling(t *testing.T) {
	m := newMailbox()
	if _, ok := m.tryGet(); ok {
		t.Fatal("tryGet on an empty mailbox returned a packet")
	}

	// Interleave so the slice grows with popped slots in front, and runs
	// empty (resetting head) mid-sequence.
	seq, want := 0, 0
	take := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			pkt, ok := m.tryGet()
			if !ok {
				t.Fatalf("mailbox empty with %d packets owed", m.len())
			}
			if got := int(binary.BigEndian.Uint64(pkt.frame)); got != want {
				t.Fatalf("got seq %d, want %d", got, want)
			}
			want++
		}
	}
	for _, step := range []struct{ put, take int }{{5, 3}, {6, 0}, {20, 28}, {40, 10}, {1000, 1030}} {
		for i := 0; i < step.put; i++ {
			m.put(numbered(0, seq))
			seq++
		}
		if m.len() != seq-want {
			t.Fatalf("len = %d, want %d", m.len(), seq-want)
		}
		take(step.take)
	}
	if _, ok := m.tryGet(); ok || m.len() != 0 {
		t.Fatal("mailbox not empty after taking everything put")
	}
	if m.head != 0 || len(m.q) != 0 {
		t.Fatalf("empty mailbox not reset: head %d, len %d", m.head, len(m.q))
	}
	for i, slot := range m.q[:cap(m.q)] {
		if slot.frame != nil {
			t.Fatalf("slot %d still references a delivered frame", i)
		}
	}

	// close with packets queued: get drains them, then reports false —
	// and keeps reporting it.
	m.put(numbered(0, seq))
	m.close()
	if pkt, ok := m.get(); !ok || int(binary.BigEndian.Uint64(pkt.frame)) != seq {
		t.Fatalf("get after close lost the queued packet (ok=%v)", ok)
	}
	for i := 0; i < 2; i++ {
		if _, ok := m.get(); ok {
			t.Fatal("get on a closed, drained mailbox returned a packet")
		}
	}
}

// A consumer parked in get wakes on put and on close. Yielding after the
// handshake lets the goroutine reach Wait, so the wake-up (Signal,
// Broadcast) is what the test exercises rather than get's first look at
// the queue.
func TestMailboxWakesParkedGet(t *testing.T) {
	m := newMailbox()
	started, done := make(chan struct{}), make(chan bool)
	parkGet := func() {
		go func() {
			started <- struct{}{}
			_, ok := m.get()
			done <- ok
		}()
		<-started
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
	}

	parkGet()
	m.put(numbered(0, 0))
	if ok := <-done; !ok {
		t.Fatal("parked get did not receive the packet put")
	}

	parkGet()
	m.close()
	if ok := <-done; ok {
		t.Fatal("get returned a packet from an empty closed mailbox")
	}
}
