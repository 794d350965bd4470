package recovery

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/rng"
	"mobickpt/internal/trace"
)

// recoverAll runs the whole analysis — propagation, residue check and
// both measures — for a failure of host failed restoring ordinal 0.
func recoverAll(e *execution, failed int, logged LoggedFunc) (Cut, int, ReplayMetrics, int) {
	seed := NewCut(e.tr.NumHosts())
	seed[failed] = 0
	cut, steps := PropagateReplay(e.tr, seed, logged)
	return cut, steps, MeasureReplay(e.tr, cut, e.chain, e.end, steps, logged), UnloggedOrphans(e.tr, cut, logged)
}

// TestIndexFollowsTraceGrowth recovers on a trace, lets the trace grow —
// more deliveries, then a joined host and its traffic — and recovers
// again: every answer must be the one a never-indexed copy of the same
// history gives, i.e. the cached index is dropped whenever the trace's
// event count or host count has moved.
func TestIndexFollowsTraceGrowth(t *testing.T) {
	const hosts, msgs = 6, 240
	full := randomTrace(rng.New(11), hosts, 1, msgs, false)
	events := events(full.tr)
	logged := func(_ mobile.HostID, seq int) bool { return seq%3 != 0 }

	// grown replays a prefix of the full history into one trace that is
	// indexed (and recovered on) after every stage; fresh is rebuilt from
	// nothing each time.
	replay := func(tr *trace.Trace, evs []trace.MessageEvent) {
		for _, ev := range evs {
			for int(ev.From) >= tr.NumHosts() || int(ev.To) >= tr.NumHosts() {
				tr.History().Join(mobile.HostID(tr.NumHosts()), 0, ev.SentAt)
			}
			tr.RecordSend(ev.ID, ev.From, ev.To, ev.SendCount, ev.SentAt)
			tr.RecordDeliver(ev.ID, ev.RecvCount, ev.DeliveredAt)
		}
	}
	grown := &execution{tr: trace.New(hosts), chains: full.chains, end: full.end}
	done := 0
	for _, upTo := range []int{len(events) / 4, len(events) / 2, len(events)} {
		replay(grown.tr, events[done:upTo])
		done = upTo
		fresh := &execution{tr: trace.New(hosts), chains: full.chains, end: full.end}
		replay(fresh.tr, events[:upTo])
		if grown.tr.NumHosts() != fresh.tr.NumHosts() {
			t.Fatalf("replayed traces disagree on the host count")
		}
		for failed := 0; failed < grown.tr.NumHosts(); failed++ {
			gc, gs, gm, gor := recoverAll(grown, failed, logged)
			fc, fs, fm, foo := recoverAll(fresh, failed, logged)
			if !slices.Equal(gc, fc) || gs != fs || gm != fm || gor != foo {
				t.Fatalf("after %d events, host %d: grown trace recovers %v/%d/%+v, fresh one %v/%d/%+v",
					upTo, failed, gc, gs, gm, fc, fs, fm)
			}
		}
	}
	if grown.tr.NumHosts() != hosts+1 {
		t.Fatalf("the history's joined host never appeared (%d hosts)", grown.tr.NumHosts())
	}
}

// TestConcurrentRecoveries analyzes every host's failure at once on one
// finished, not yet indexed trace: the lazy build must happen once and
// the index be shared read-only (run under -race).
func TestConcurrentRecoveries(t *testing.T) {
	e := randomTrace(rng.New(5), 8, 0, 400, false)
	logged := func(_ mobile.HostID, seq int) bool { return seq%2 == 0 }
	n := e.tr.NumHosts()
	cuts, steps := make([]Cut, n), make([]int, n)
	var wg sync.WaitGroup
	for h := 0; h < n; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			cuts[h], steps[h], _, _ = recoverAll(e, h, logged)
		}(h)
	}
	wg.Wait()
	for h := 0; h < n; h++ {
		seed := NewCut(n)
		seed[h] = 0
		want, wantSteps := propagateReference(e.tr, seed, logged)
		if !slices.Equal(cuts[h], want) || steps[h] != wantSteps {
			t.Errorf("host %d: concurrent recovery %v/%d, reference %v/%d", h, cuts[h], steps[h], want, wantSteps)
		}
	}
}

// TestCutWidthMismatchPanics: a cut narrower (or wider) than the trace is
// refused up front by every function that reads the index, with the two
// widths in the message.
func TestCutWidthMismatchPanics(t *testing.T) {
	e := randomTrace(rng.New(3), 4, 1, 60, false)
	narrow := NewCut(4)
	narrow[0] = 0
	calls := map[string]func(){
		"Propagate":       func() { Propagate(e.tr, narrow) },
		"PropagateReplay": func() { PropagateReplay(e.tr, narrow, allLogged) },
		"UnloggedOrphans": func() { UnloggedOrphans(e.tr, narrow, nil) },
		"Measure":         func() { Measure(e.tr, narrow, e.chain, e.end, 0) },
		"MeasureReplay":   func() { MeasureReplay(e.tr, append(narrow.Clone(), End, End), e.chain, e.end, 0, allLogged) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "cut spans") || !strings.Contains(msg, "5") {
					t.Errorf("%s: panic %q, want the cut/trace widths", name, msg)
				}
			}()
			call()
		}()
	}
}
