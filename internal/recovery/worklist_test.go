package recovery

import (
	"math"
	"slices"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// The reference implementations: each reads the whole trace, in delivery
// order, straight from the definitions. The production functions read
// trace.Index instead and must return the same cuts, step counts and
// metrics — DominoSteps included, which depends on evaluation order and
// is a reported figure (E8).

// events lists the trace's delivered messages in delivery order.
func events(tr *trace.Trace) []trace.MessageEvent {
	evs := make([]trace.MessageEvent, tr.Len())
	for i := range evs {
		evs[i] = tr.Event(i)
	}
	return evs
}

// deliverySeqs returns, for each trace event, its per-receiver delivery
// ordinal — the position mlog keys its entries by.
func deliverySeqs(tr *trace.Trace) []int {
	seqs := make([]int, tr.Len())
	next := make([]int, tr.NumHosts())
	for i, ev := range events(tr) {
		seqs[i] = next[ev.To]
		next[ev.To]++
	}
	return seqs
}

// propagateReference is the original full-rescan fixpoint.
func propagateReference(tr *trace.Trace, seed Cut, logged LoggedFunc) (Cut, int) {
	var seqs []int
	if logged != nil {
		seqs = deliverySeqs(tr)
	}
	cut := seed.Clone()
	steps := 0
	for {
		changed := false
		for i, ev := range events(tr) {
			if ev.SendCount > cut[ev.From] && ev.RecvCount <= cut[ev.To] &&
				(logged == nil || !logged(ev.To, seqs[i])) {
				cut[ev.To] = ev.RecvCount - 1
				steps++
				changed = true
			}
		}
		if !changed {
			return cut, steps
		}
	}
}

func unloggedOrphansReference(tr *trace.Trace, cut Cut, logged LoggedFunc) int {
	if logged == nil {
		return Orphans(tr, cut)
	}
	seqs := deliverySeqs(tr)
	n := 0
	for i, ev := range events(tr) {
		if ev.SendCount > cut[ev.From] && ev.RecvCount <= cut[ev.To] && !logged(ev.To, seqs[i]) {
			n++
		}
	}
	return n
}

func measureReference(tr *trace.Trace, cut Cut, chains func(mobile.HostID) []*storage.Record, failTime des.Time, dominoSteps int) Metrics {
	m := Metrics{DominoSteps: dominoSteps}
	for h, x := range cut {
		if x == End {
			continue
		}
		m.RolledBackHosts++
		chain := chains(mobile.HostID(h))
		var restoredAt des.Time
		if x < len(chain) {
			restoredAt = chain[x].TakenAt
		}
		lost := failTime - restoredAt
		m.UndoneTime += lost
		if lost > m.MaxRollback {
			m.MaxRollback = lost
		}
	}
	for _, ev := range events(tr) {
		if ev.RecvCount > cut[ev.To] {
			m.UndoneMessages++
		}
	}
	return m
}

func measureReplayReference(tr *trace.Trace, cut Cut, chains func(mobile.HostID) []*storage.Record, failTime des.Time, dominoSteps int, logged LoggedFunc) ReplayMetrics {
	m := ReplayMetrics{Metrics: Metrics{DominoSteps: dominoSteps}}
	seqs := deliverySeqs(tr)

	// frontier[h] is the time replay reconstructs host h up to (the
	// restored checkpoint's timestamp when nothing replays); broken[h]
	// marks a host whose in-order replay hit an unlogged delivery.
	frontier := make([]des.Time, len(cut))
	broken := make([]bool, len(cut))
	restoredAt := make([]des.Time, len(cut))
	for h, x := range cut {
		if x == End {
			continue
		}
		m.RolledBackHosts++
		chain := chains(mobile.HostID(h))
		if x < len(chain) {
			restoredAt[h] = chain[x].TakenAt
		}
		frontier[h] = restoredAt[h]
	}
	// Walk deliveries in trace (delivery) order: per host this is Seq
	// order, so the first unlogged undone delivery ends that host's
	// replayable prefix.
	for i, ev := range events(tr) {
		x := cut[ev.To]
		if x == End || ev.RecvCount <= x {
			continue
		}
		if !broken[ev.To] && logged != nil && logged(ev.To, seqs[i]) {
			m.ReplayedMessages++
			if ev.DeliveredAt > frontier[ev.To] {
				frontier[ev.To] = ev.DeliveredAt
			}
			continue
		}
		broken[ev.To] = true
		m.UndoneMessages++
	}
	for h, x := range cut {
		if x == End {
			continue
		}
		lost := failTime - frontier[h]
		m.UndoneTime += lost
		m.ReplayedTime += frontier[h] - restoredAt[h]
		if lost > m.MaxRollback {
			m.MaxRollback = lost
		}
	}
	return m
}

// execution is a randomized recorded run: the trace, each host's
// checkpoint chain (TakenAt is all the measures read) and the time the
// run ended.
type execution struct {
	tr     *trace.Trace
	chains [][]*storage.Record
	end    des.Time
}

func (e *execution) chain(h mobile.HostID) []*storage.Record { return e.chains[h] }

// randomTrace builds a messy execution: out-of-order deliveries (so
// per-host SendCounts are not monotone in trace order), occasional
// checkpoints, and joins more hosts entering at evenly spaced points of
// the run. Messages wait in flight for hundreds of deliveries, so a
// rollback's orphans sit far ahead of it and dominos stay short. A deep
// trace is the shape of an uncoordinated run instead: at most one message
// in flight per host and a checkpoint every ten sends or deliveries, so
// each domino step rolls a receiver back about one interval before the
// last and chains run to hundreds of steps over many sweep rounds.
func randomTrace(src *rng.Source, hosts, joins, msgs int, deep bool) *execution {
	sendOdds, deliverOdds := 4, 5 // one checkpoint per so many sends, deliveries
	if deep {
		sendOdds, deliverOdds = 10, 10
	}
	e := &execution{tr: trace.New(hosts)}
	checkpoint := func(h mobile.HostID) {
		e.chains[h] = append(e.chains[h], &storage.Record{Host: int32(h), Ordinal: int32(len(e.chains[h])), TakenAt: e.end})
	}
	join := func() {
		e.chains = append(e.chains, nil)
		checkpoint(mobile.HostID(len(e.chains) - 1)) // the initial checkpoint
	}
	for h := 0; h < hosts; h++ {
		join()
	}
	type pending struct {
		id uint64
		to mobile.HostID
	}
	var inflight []pending
	joined := 0
	for sent := 0; sent < msgs || len(inflight) > 0; e.end++ {
		if joined < joins && sent >= (joined+1)*msgs/(joins+1) {
			e.tr.History().Append(trace.Event{Kind: trace.Join, At: e.end, Host: int32(e.tr.NumHosts())})
			join()
			joined++
		}
		n := len(e.chains)
		// Bias toward sending while messages remain, then drain.
		if sent < msgs && (len(inflight) == 0 || src.Intn(3) > 0) && (!deep || len(inflight) < n) {
			from := mobile.HostID(src.Intn(n))
			to := mobile.HostID(src.Intn(n))
			if to == from {
				to = mobile.HostID((int(to) + 1) % n)
			}
			e.tr.RecordSend(uint64(sent), from, to, len(e.chains[from]), e.end)
			inflight = append(inflight, pending{id: uint64(sent), to: to})
			sent++
			if src.Intn(sendOdds) == 0 {
				checkpoint(from) // checkpoint between sends
			}
		} else {
			// Deliver a random in-flight message: delivery order is
			// deliberately decoupled from send order.
			k := src.Intn(len(inflight))
			p := inflight[k]
			inflight[k] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			if src.Intn(deliverOdds) == 0 {
				checkpoint(p.to) // forced checkpoint on delivery
			}
			e.tr.RecordDeliver(p.id, len(e.chains[p.to]), e.end)
		}
	}
	return e
}

// randomCut rolls a few hosts back (a failure and its neighbours) or,
// every third call, nearly all of them (a protocol's recovery line); the
// rest stay at End. Restore points are anywhere in a host's chain.
func randomCut(src *rng.Source, e *execution) Cut {
	cut := NewCut(len(e.chains))
	rolled := 1 + src.Intn(3)
	if src.Intn(3) == 0 {
		rolled = len(cut)
	}
	for k := 0; k < rolled; k++ {
		h := src.Intn(len(cut))
		cut[h] = src.Intn(len(e.chains[h]))
	}
	return cut
}

// stableBounds is the shape of every mlog-backed predicate: host h's
// first bound[h] deliveries are stably logged.
func stableBounds(bound []int) LoggedFunc {
	return func(to mobile.HostID, seq int) bool { return seq < bound[to] }
}

// TestWorklistMatchesReference drives the indexed functions and the
// references over randomized traces (with and without joined hosts),
// cuts with End entries, and every logging discipline's predicate: off
// (nil), pessimistic (every delivery stable), optimistic (a stable prefix
// per host) and a log that never flushed (zero bounds). Cuts, step
// counts, orphan counts and every metrics field must be identical, on
// the inconsistent seed cut as well as on the fixpoint. Forty traces are
// small; eight more are deep ones of 5 000 messages, so positions span
// many bitmap words and dominos cross tens of sweep rounds (up to 352
// steps in 51) — and some case must take 100 steps, or the order the
// sweep reproduces was never tested.
func TestWorklistMatchesReference(t *testing.T) {
	maxSteps := 0
	for seed := uint64(1); seed <= 48; seed++ {
		src := rng.New(seed)
		hosts, msgs, deep := 3+src.Intn(8), 200, seed > 40
		if deep {
			msgs = 5000
		}
		e := randomTrace(src, hosts, int(seed%3), msgs, deep)
		n := e.tr.NumHosts()

		full, partial, zero := make([]int, n), make([]int, n), make([]int, n)
		for h := range full {
			full[h] = math.MaxInt
			partial[h] = src.Intn(msgs / 5)
		}
		predicates := []struct {
			name   string
			logged LoggedFunc
		}{
			{"off", nil},
			{"pessimistic", stableBounds(full)},
			{"optimistic", stableBounds(partial)},
			{"unflushed", stableBounds(zero)},
		}
		for _, p := range predicates {
			start := randomCut(src, e)
			wantCut, wantSteps := propagateReference(e.tr, start, p.logged)
			gotCut, gotSteps := PropagateReplay(e.tr, start, p.logged)
			if gotSteps != wantSteps || !slices.Equal(gotCut, wantCut) {
				t.Fatalf("seed %d %s: from %v got %v in %d steps, reference %v in %d",
					seed, p.name, start, gotCut, gotSteps, wantCut, wantSteps)
			}
			maxSteps = max(maxSteps, wantSteps)
			if p.logged == nil {
				if c, s := Propagate(e.tr, start); s != wantSteps || !slices.Equal(c, wantCut) {
					t.Fatalf("seed %d: Propagate got %v in %d steps, reference %v in %d", seed, c, s, wantCut, wantSteps)
				}
			}
			if o := UnloggedOrphans(e.tr, gotCut, p.logged); o != 0 {
				t.Fatalf("seed %d %s: fixpoint left %d unlogged orphans", seed, p.name, o)
			}
			for _, cut := range []Cut{start, gotCut} {
				if got, want := UnloggedOrphans(e.tr, cut, p.logged), unloggedOrphansReference(e.tr, cut, p.logged); got != want {
					t.Fatalf("seed %d %s: unlogged orphans of %v = %d, reference %d", seed, p.name, cut, got, want)
				}
				if got, want := Measure(e.tr, cut, e.chain, e.end, wantSteps), measureReference(e.tr, cut, e.chain, e.end, wantSteps); got != want {
					t.Fatalf("seed %d: Measure(%v) = %+v, reference %+v", seed, cut, got, want)
				}
				got := MeasureReplay(e.tr, cut, e.chain, e.end, wantSteps, p.logged)
				if want := measureReplayReference(e.tr, cut, e.chain, e.end, wantSteps, p.logged); got != want {
					t.Fatalf("seed %d %s: MeasureReplay(%v) = %+v, reference %+v", seed, p.name, cut, got, want)
				}
			}
		}
	}
	if maxSteps < 100 {
		t.Fatalf("the deepest domino took %d steps; the traces no longer exercise a long one", maxSteps)
	}
	t.Logf("deepest domino: %d steps", maxSteps)
}
