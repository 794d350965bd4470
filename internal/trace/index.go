package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Index is the failure-independent view of a trace that the recovery
// analysis reads: which host failed decides where a recovery starts, not
// how the history is laid out, so the layout is derived once per trace
// and every recovery after that costs what its failure undoes. Events
// are named by position (the i of Event(i)), 32 bits each: the three
// tables cost 24 bytes per event, 16 of them the send records. All of it
// is owned by the trace and read-only to callers.
type Index struct {
	// Sends[h] lists the messages h sent, ordered by (SendCount,
	// position). The trace is in delivery order, under which a sender's
	// SendCount is not monotone; in this order the sends a rollback of h
	// undoes are always a suffix.
	Sends [][]SendRecord
	// Recvs[h] lists the messages delivered to h in delivery order. A
	// host's checkpoint count only grows, so RecvCount never decreases
	// along the list (Index verifies it) and the receives a rollback of h
	// undoes are a suffix a binary search finds.
	Recvs [][]int32
	// Seq[i] is event i's offset in Recvs[To]: its per-receiver delivery
	// ordinal, the position mlog keys its entries by.
	Seq []int32
}

// SendRecord is one entry of a sender's list: the event's position and
// the three fields a recovery reads of a send it undoes, side by side
// rather than behind three dependent column loads.
type SendRecord struct {
	Pos, To, SendCount, RecvCount int32
}

// Index returns the trace's index, building it on first use and again
// whenever the trace has grown since (deliveries recorded or hosts
// joined), so a finished trace is indexed once however many failures are
// analyzed on it. Concurrent calls on a trace nobody is recording into
// are safe. It panics on a trace whose positions do not fit 32 bits or
// in which some receiver's RecvCount decreases — a recording bug, named
// by host and position, that would otherwise surface as a quietly wrong
// count out of a binary search.
func (t *Trace) Index() *Index {
	t.indexMu.Lock()
	defer t.indexMu.Unlock()
	if ix := t.index; ix == nil || len(ix.Seq) != t.Len() || len(ix.Sends) != t.NumHosts() {
		t.index = t.buildIndex()
	}
	return t.index
}

// buildIndex reads the history's delivery tables and the view's count
// columns in place, chunk by chunk — every column has the same chunk
// boundaries — and materializes no event.
func (t *Trace) buildIndex() *Index {
	h, n, hosts := t.h, t.Len(), t.NumHosts()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("trace: %d events do not fit the index's 32-bit positions", n))
	}
	ix := &Index{
		Sends: make([][]SendRecord, hosts),
		Recvs: make([][]int32, hosts),
		Seq:   make([]int32, n),
	}
	// Count, carve both tables out of one backing array each, fill.
	sent, received := make([]int, hosts), make([]int, hosts)
	for lo := 0; lo < n; {
		recv, _ := t.recv.ChunkOf(lo)
		rows, _ := h.delivRow.ChunkOf(lo)
		tos, _ := h.delivTo.ChunkOf(lo)
		for j := range recv {
			sent[h.peer.At(int(rows[j]))]++
			received[tos[j]]++
		}
		lo += len(recv)
	}
	sendBuf, recvBuf := make([]SendRecord, n), make([]int32, n)
	for k, so, ro := 0, 0, 0; k < hosts; k++ {
		ix.Sends[k] = sendBuf[so : so : so+sent[k]]
		ix.Recvs[k] = recvBuf[ro : ro : ro+received[k]]
		so += sent[k]
		ro += received[k]
	}
	last := make([]int32, hosts) // each receiver's latest RecvCount
	for lo := 0; lo < n; {
		recv, _ := t.recv.ChunkOf(lo)
		rows, _ := h.delivRow.ChunkOf(lo)
		msgs, _ := h.delivMsg.ChunkOf(lo)
		tos, _ := h.delivTo.ChunkOf(lo)
		for j, rc := range recv {
			i, r, from, to := lo+j, rows[j], h.peer.At(int(rows[j])), tos[j]
			rv := ix.Recvs[to]
			if len(rv) > 0 && last[to] > rc {
				panic(fmt.Sprintf("trace: host %d's RecvCount falls from %d to %d at event %d (message %d)",
					to, last[to], rc, i, h.msg.At(int(r))))
			}
			last[to] = rc
			ix.Seq[i] = int32(len(rv))
			ix.Recvs[to] = append(rv, int32(i))
			ix.Sends[from] = append(ix.Sends[from], SendRecord{
				Pos: int32(i), To: to, SendCount: t.send.At(int(msgs[j])), RecvCount: rc,
			})
		}
		lo += len(recv)
	}
	var late []SendRecord // sortSends' scratch, shared by all senders
	for _, s := range ix.Sends {
		late = sortSends(s, late[:0])
	}
	return ix
}

// sortSends orders one sender's records, given in increasing position,
// by (SendCount, position). Messages mostly arrive in the order they were
// sent, so the list is one long non-decreasing run plus a few late
// arrivals (a message parked at an MSS through a disconnection): split
// the two in one pass, sort only the late ones and merge them back in
// place — linear in the list unless most of it is late. late is scratch
// space, returned for the next sender.
func sortSends(s, late []SendRecord) []SendRecord {
	run := s[:0]
	var top int32
	for _, e := range s {
		if e.SendCount >= top {
			top = e.SendCount
			run = append(run, e)
		} else {
			late = append(late, e)
		}
	}
	if len(late) == 0 {
		return late
	}
	// Stable, so equal SendCounts keep their increasing positions.
	slices.SortStableFunc(late, func(a, b SendRecord) int {
		return cmp.Compare(a.SendCount, b.SendCount)
	})
	// Merge from the back: the write position never catches up with the
	// run's unread part.
	i, j := len(run)-1, len(late)-1
	for w := len(s) - 1; j >= 0; w-- {
		if i >= 0 && (run[i].SendCount > late[j].SendCount ||
			run[i].SendCount == late[j].SendCount && run[i].Pos > late[j].Pos) {
			s[w] = run[i]
			i--
		} else {
			s[w] = late[j]
			j--
		}
	}
	return late
}
