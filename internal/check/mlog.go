package check

import (
	"fmt"

	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/trace"
)

// LogReconciliation verifies an MSS message log against the recorded
// trace of the same execution:
//
//   - every delivered message was logged, in delivery order, with
//     matching identity (message id, sender) and receiver position — a
//     log over the trace's own history reads the identity through its
//     reference, so this holds the reference to the right row;
//   - per-host receiver positions are nondecreasing (the determinized
//     delivery order the log replays in);
//   - the stable frontier is a prefix of the appended entries, and under
//     pessimistic logging covers all of them (log-before-deliver);
//   - the log holds no entry the trace cannot account for.
//
// Entries already pruned by garbage collection are exempt from content
// checks (their receives precede every restorable checkpoint).
func LogReconciliation(proto string, lg *mlog.Log, tr *trace.Trace, n int) Violations {
	var vs Violations
	violate := func(h mobile.HostID, detail string) {
		if len(vs) >= maxViolations {
			return
		}
		vs = append(vs, &Violation{Protocol: proto, Host: h, Rule: "log-reconcile", Detail: detail})
	}

	delivered := make([]int, n)
	lastRecv := make([]int, n)
	for i := range lastRecv {
		lastRecv[i] = -1
	}
	for i := range tr.Len() {
		ev := tr.Event(i)
		h := ev.To
		seq := delivered[h]
		delivered[h]++
		if ev.RecvCount < lastRecv[h] {
			violate(h, fmt.Sprintf("delivery %d has receiver position %d after position %d (order not determinized)",
				seq, ev.RecvCount, lastRecv[h]))
		}
		lastRecv[h] = ev.RecvCount
		if seq < lg.RetainedFrom(h) {
			continue // pruned by GC: content no longer available by design
		}
		e, ok := lg.EntryAt(h, seq)
		if !ok {
			violate(h, fmt.Sprintf("delivery %d (msg %d) has no log entry", seq, ev.ID))
			continue
		}
		if e.MsgID != ev.ID || e.From != ev.From {
			violate(h, fmt.Sprintf("log entry %d records msg %d from %d, trace has msg %d from %d",
				seq, e.MsgID, e.From, ev.ID, ev.From))
		}
		if e.RecvCount != ev.RecvCount {
			violate(h, fmt.Sprintf("log entry %d records receiver position %d, trace has %d",
				seq, e.RecvCount, ev.RecvCount))
		}
	}
	for h := 0; h < n; h++ {
		id := mobile.HostID(h)
		if got := lg.AppendedCount(id); got != delivered[h] {
			violate(id, fmt.Sprintf("log holds %d entries, trace delivered %d messages", got, delivered[h]))
		}
		if sb, ap := lg.StableBound(id), lg.AppendedCount(id); sb > ap {
			violate(id, fmt.Sprintf("stable frontier %d exceeds appended count %d", sb, ap))
		}
		if lg.Mode() == mlog.Pessimistic && lg.PendingCount(id) != 0 {
			violate(id, fmt.Sprintf("pessimistic log has %d unflushed entries", lg.PendingCount(id)))
		}
	}
	return vs
}

// ReplayReconciliation verifies an executed replay against the trace:
// every rolled-back host must have re-delivered exactly the deliveries
// the trace says its restored checkpoint undid and the log had made
// stable — in their original per-host order, with no gap after the
// restored checkpoint or in between. replayed maps each host to the
// entries it re-delivered, in replay order.
//
// The expected set is derived from the trace, never from the log: a log
// pruned one checkpoint too far answers ReplayFrom with a shorter suffix,
// and comparing the replay with that would lose the entry on both sides.
func ReplayReconciliation(proto string, lg *mlog.Log, tr *trace.Trace, cut recovery.Cut, replayed map[mobile.HostID][]mlog.Entry) Violations {
	var vs Violations
	violate := func(h mobile.HostID, detail string) {
		if len(vs) >= maxViolations {
			return
		}
		vs = append(vs, &Violation{Protocol: proto, Host: h, Rule: "replay-reconcile", Detail: detail})
	}

	// The trace's index lists each host's deliveries by per-host seq. The
	// walk also covers hosts only the cut or the replay names, so each is
	// visited once, in host order.
	recvs := tr.Index().Recvs
	n := max(len(recvs), len(cut))
	for h := range replayed {
		n = max(n, int(h)+1)
	}
	for host := range n {
		h := mobile.HostID(host)
		var evs []int32
		if host < len(recvs) {
			evs = recvs[host]
		}
		entries := replayed[h]
		ord := recovery.End
		if host < len(cut) {
			ord = cut[host]
		}
		if ord == recovery.End {
			if len(entries) > 0 {
				violate(h, "host replayed messages without rolling back")
			}
			continue
		}
		prev := -1
		for i, e := range entries {
			if e.Seq >= lg.StableBound(h) {
				violate(h, fmt.Sprintf("replayed entry %d was never stably logged (stable frontier %d)", e.Seq, lg.StableBound(h)))
			}
			if e.Seq <= prev {
				violate(h, fmt.Sprintf("replay order regressed: entry %d after %d", e.Seq, prev))
			}
			if i > 0 && e.Seq != prev+1 {
				violate(h, fmt.Sprintf("replay gap: entry %d follows %d", e.Seq, prev))
			}
			prev = e.Seq
			if e.RecvCount <= ord {
				violate(h, fmt.Sprintf("replayed entry %d was not undone (position %d, restored ordinal %d)", e.Seq, e.RecvCount, ord))
			}
			if e.Seq < 0 || e.Seq >= len(evs) {
				violate(h, fmt.Sprintf("replayed entry %d has no trace delivery", e.Seq))
				continue
			}
			ev := tr.Event(int(evs[e.Seq]))
			if ev.ID != e.MsgID || ev.From != e.From || ev.RecvCount != e.RecvCount {
				violate(h, fmt.Sprintf("replayed entry %d (msg %d from %d at %d) mismatches trace delivery (msg %d from %d at %d)",
					e.Seq, e.MsgID, e.From, e.RecvCount, ev.ID, ev.From, ev.RecvCount))
			}
		}
		// No gap at the start and none at the end: the replay must begin
		// at the first delivery the restore undid and run to the stable
		// frontier. Receiver positions are nondecreasing per host, so the
		// undone deliveries are a suffix of evs.
		first := len(evs)
		for seq, p := range evs {
			if tr.RecvCount(int(p)) > ord {
				first = seq
				break
			}
		}
		end := max(first, min(lg.StableBound(h), len(evs)))
		switch {
		case len(entries) != end-first:
			violate(h, fmt.Sprintf("replayed %d entries, the trace has %d stably logged deliveries past checkpoint %d (entries %d..%d)",
				len(entries), end-first, ord, first, end-1))
		case len(entries) > 0 && entries[0].Seq != first:
			violate(h, fmt.Sprintf("replay starts at entry %d, the first undone delivery is entry %d", entries[0].Seq, first))
		}
	}
	return vs
}
