package check

import (
	"fmt"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// harness wires one protocol to a fresh store and its invariant checker,
// the way the engine does.
type harness struct {
	store *storage.Store
	now   des.Time
}

func newHarness() *harness {
	return &harness{store: storage.NewStore(storage.DefaultCostModel())}
}

func (h *harness) ckpt(host mobile.HostID, index int, kind storage.Kind) *storage.Record {
	return h.store.Take(host, 0, index, kind, h.now)
}

func (h *harness) counts(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = len(h.store.Chain(mobile.HostID(i)))
	}
	return c
}

// A clean scripted BCS run must produce zero violations.
func TestRuntimeCleanBCS(t *testing.T) {
	env := newHarness()
	b := protocol.NewBCS(2, env.ckpt)
	rt := NewRuntime("BCS", b, env.store, func() des.Time { return env.now })

	b.Init()
	rt.AfterInit(2)

	env.now = 10
	b.OnCellSwitch(0, 0) // sn_0 = 1
	rt.After(trace.Event{Kind: trace.Handoff, Host: 0}, nil)

	pb := b.OnSend(0, 1)
	rt.After(trace.Event{Kind: trace.Send, Host: 0}, pb)
	b.OnDeliver(1, 0, pb) // m.sn = 1 > sn_1 = 0: forced
	rt.After(trace.Event{Kind: trace.Deliver, Host: 1, Peer: 0}, pb)

	pb = b.OnSend(1, 0)
	rt.After(trace.Event{Kind: trace.Send, Host: 1}, pb)
	b.OnDeliver(0, 1, pb) // m.sn = 1 = sn_0: no checkpoint
	rt.After(trace.Event{Kind: trace.Deliver, Host: 0, Peer: 1}, pb)

	b.OnDisconnect(1) // sn_1 = 2
	rt.After(trace.Event{Kind: trace.Disconnect, Host: 1}, nil)
	b.OnReconnect(1, 0)
	rt.After(trace.Event{Kind: trace.Reconnect, Host: 1}, nil)

	if vs := rt.Finish(env.counts(2)); len(vs) != 0 {
		t.Fatalf("clean run reported violations:\n%v", vs)
	}
}

// A clean scripted QBC run with an equivalence replacement must pass.
func TestRuntimeCleanQBC(t *testing.T) {
	env := newHarness()
	q := protocol.NewQBC(2, env.ckpt, env.store)
	rt := NewRuntime("QBC", q, env.store, func() des.Time { return env.now })

	q.Init()
	rt.AfterInit(2)

	// rn_0 = -1 < sn_0 = 0: this basic checkpoint replaces the initial one.
	q.OnCellSwitch(0, 0)
	rt.After(trace.Event{Kind: trace.Handoff, Host: 0}, nil)

	pb := q.OnSend(0, 1)
	rt.After(trace.Event{Kind: trace.Send, Host: 0}, pb)
	q.OnDeliver(1, 0, pb) // m.sn = 0 = sn_1: rn_1 = 0, no checkpoint
	rt.After(trace.Event{Kind: trace.Deliver, Host: 1, Peer: 0}, pb)

	// rn_1 = 0 = sn_1: the index must now be incremented, BCS-style.
	q.OnDisconnect(1)
	rt.After(trace.Event{Kind: trace.Disconnect, Host: 1}, nil)

	if vs := rt.Finish(env.counts(2)); len(vs) != 0 {
		t.Fatalf("clean run reported violations:\n%v", vs)
	}
}

// The checker must flag a violated forcing rule: the engine reports a
// delivery of a future index but the protocol took no checkpoint.
func TestRuntimeDetectsMissingForcedCheckpoint(t *testing.T) {
	env := newHarness()
	b := protocol.NewBCS(2, env.ckpt)
	rt := NewRuntime("BCS", b, env.store, func() des.Time { return 42 })

	b.Init()
	rt.AfterInit(2)
	// Claim host 1 delivered m.sn = 5 without driving the protocol: no
	// forced checkpoint exists and the live sn disagrees with the model.
	rt.After(trace.Event{Kind: trace.Deliver, Host: 1, Peer: 0}, protocol.IndexPiggyback(5))

	vs := rt.Finish(env.counts(2))
	if len(vs) == 0 {
		t.Fatal("missing forced checkpoint not detected")
	}
	found := false
	for _, v := range vs {
		if v.Rule == "forcing-rule" && v.Host == 1 && v.Time == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no forcing-rule violation for host 1 at t=42 in:\n%v", vs)
	}
}

// The checker must flag a broken equivalence rule: a replacement that
// leaves its same-index predecessor live. NewQBC with a nil store skips
// supersession, which is exactly that bug.
func TestRuntimeDetectsMissedSupersession(t *testing.T) {
	env := newHarness()
	q := protocol.NewQBC(2, env.ckpt, nil) // nil: replacements never supersede
	rt := NewRuntime("QBC", q, env.store, func() des.Time { return env.now })

	q.Init()
	rt.AfterInit(2)
	q.OnCellSwitch(0, 0) // rn < sn: replacement... that nobody records
	rt.After(trace.Event{Kind: trace.Handoff, Host: 0}, nil)

	vs := rt.Finish(env.counts(2))
	found := false
	for _, v := range vs {
		if v.Rule == "equivalence-rule" && strings.Contains(v.Detail, "predecessor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missed supersession not detected:\n%v", vs)
	}
}

// The checker must flag checkpoints the model did not expect (here: a
// record appended behind the protocol's back) and count mismatches.
func TestRuntimeDetectsReconcileDrift(t *testing.T) {
	env := newHarness()
	b := protocol.NewBCS(1, env.ckpt)
	rt := NewRuntime("BCS", b, env.store, func() des.Time { return env.now })
	b.Init()
	rt.AfterInit(1)

	// A rogue record the protocol never took.
	env.store.Take(0, 0, 7, storage.Forced, env.now)
	vs := rt.Finish([]int{1})
	if len(vs) == 0 {
		t.Fatal("rogue record not detected")
	}
	if vs[0].Rule != "reconcile" {
		t.Fatalf("rule = %q, want reconcile", vs[0].Rule)
	}

	// Engine counter disagreeing with the store is also a violation.
	env2 := newHarness()
	b2 := protocol.NewBCS(1, env2.ckpt)
	rt2 := NewRuntime("BCS", b2, env2.store, func() des.Time { return 0 })
	b2.Init()
	rt2.AfterInit(1)
	vs = rt2.Finish([]int{99})
	if len(vs) == 0 || vs[0].Rule != "reconcile" {
		t.Fatalf("counter drift not detected: %v", vs)
	}
}

// Live indices must be strictly increasing along an index-based chain.
func TestRuntimeDetectsNonMonotonicIndices(t *testing.T) {
	env := newHarness()
	b := protocol.NewBCS(1, env.ckpt)
	rt := NewRuntime("BCS", b, env.store, func() des.Time { return 0 })
	b.Init()
	rt.AfterInit(1)

	// Fabricate a chain 0, 3, 3 behind the model's back — no live index
	// may repeat, and the store itself refuses a falling one — keeping
	// lengths reconciled so only the monotonicity rule can fire.
	env.store.Take(0, 0, 3, storage.Basic, 0)
	env.store.Take(0, 0, 3, storage.Basic, 0)
	rt.After(trace.Event{Kind: trace.Handoff, Host: 0}, nil) // model absorbs one... and resyncs on the second
	rt.After(trace.Event{Kind: trace.Handoff, Host: 0}, nil)

	vs := rt.Finish([]int{3})
	found := false
	for _, v := range vs {
		if v.Rule == "index-monotonic" {
			found = true
		}
	}
	if !found {
		t.Fatalf("non-monotonic chain not detected:\n%v", vs)
	}
}

// A clean scripted TP run must pass, and LOC must agree with the
// station the store records each checkpoint at: a TP told one station
// by mssOf while its checkpoints are stored at another is flagged on the
// first checkpoint and at the end-of-run sweep.
func TestRuntimeTPLocationsMatchStore(t *testing.T) {
	for _, c := range []struct {
		name string
		mss  mobile.MSSID // what TP is told; the harness stores at station 0
		want bool         // a violation expected
	}{{"clean", 0, false}, {"mssOf disagrees", 1, true}} {
		t.Run(c.name, func(t *testing.T) {
			env := newHarness()
			tp := protocol.NewTP(2, env.ckpt, func(mobile.HostID) mobile.MSSID { return c.mss })
			rt := NewRuntime("TP", tp, env.store, func() des.Time { return env.now })
			tp.Init()
			rt.AfterInit(2)
			pb := tp.OnSend(0, 1)
			rt.After(trace.Event{Kind: trace.Send, Host: 0}, pb)
			tp.OnDeliver(1, 0, pb)
			rt.After(trace.Event{Kind: trace.Deliver, Host: 1, Peer: 0}, pb)
			tp.OnCellSwitch(1, 0)
			rt.After(trace.Event{Kind: trace.Handoff, Host: 1}, nil)

			vs := rt.Finish(env.counts(2))
			var rules []string
			for _, v := range vs {
				if !strings.Contains(v.Detail, "LOC places") {
					t.Fatalf("unexpected violation %v", v)
				}
				rules = append(rules, v.Rule)
			}
			if got := len(vs) > 0; got != c.want {
				t.Fatalf("violations %v, want some: %v", vs, c.want)
			}
			if c.want && (rules[0] != "init" || rules[len(rules)-1] != "vector-meta") {
				t.Fatalf("flagged by rules %v, want init first and vector-meta last", rules)
			}
		})
	}
}

// RecoveryLines must accept a consistent fabricated execution and reject
// one containing an orphan message.
func TestRecoveryLines(t *testing.T) {
	// Consistent: host 0 checkpoints to index 1, then sends; host 1 was
	// forced to index 1 before delivering (the BCS rule).
	st := storage.NewStore(storage.DefaultCostModel())
	st.Take(0, 0, 0, storage.Initial, 0)
	st.Take(1, 0, 0, storage.Initial, 0)
	st.Take(0, 0, 1, storage.Basic, 10)
	st.Take(1, 0, 1, storage.Forced, 20)
	tr := trace.New(2)
	tr.RecordSend(1, 0, 1, 2, 15) // after host 0's two checkpoints
	tr.RecordDeliver(1, 2, 20)    // after host 1's forced checkpoint
	if vs := RecoveryLines("BCS", st, tr, 2, 0); len(vs) != 0 {
		t.Fatalf("consistent execution rejected:\n%v", vs)
	}

	// Orphan: same store, but host 1 delivered while still holding only
	// its initial checkpoint — the index-1 cut undoes the send and keeps
	// the receive.
	st2 := storage.NewStore(storage.DefaultCostModel())
	st2.Take(0, 0, 0, storage.Initial, 0)
	st2.Take(1, 0, 0, storage.Initial, 0)
	st2.Take(0, 0, 1, storage.Basic, 10)
	tr2 := trace.New(2)
	tr2.RecordSend(1, 0, 1, 2, 15)
	tr2.RecordDeliver(1, 1, 20) // host 1 never checkpointed again
	vs := RecoveryLines("BCS", st2, tr2, 2, 0)
	if len(vs) == 0 {
		t.Fatal("orphan message not detected")
	}
	if vs[0].Rule != "recovery-line" || !strings.Contains(vs[0].Detail, "orphan") {
		t.Fatalf("unexpected violation: %v", vs[0])
	}

	// minIndex skips the inconsistent line (the GC-frontier contract).
	if vs := RecoveryLines("BCS", st2, tr2, 2, 2); len(vs) != 0 {
		t.Fatalf("minIndex did not skip pruned lines:\n%v", vs)
	}
}

func TestViolationsError(t *testing.T) {
	v := &Violation{Protocol: "BCS", Host: 3, Time: 12.5, Rule: "forcing-rule", Detail: "boom"}
	if got := v.Error(); !strings.Contains(got, "BCS") || !strings.Contains(got, "host 3") ||
		!strings.Contains(got, "forcing-rule") {
		t.Fatalf("violation format: %q", got)
	}
	var vs Violations
	for i := 0; i < 12; i++ {
		vs = append(vs, &Violation{Protocol: "BCS", Rule: "r", Detail: fmt.Sprintf("d%d", i)})
	}
	msg := vs.Error()
	if !strings.Contains(msg, "12 invariant violation(s)") || !strings.Contains(msg, "and 4 more") {
		t.Fatalf("aggregate format: %q", msg)
	}
}
