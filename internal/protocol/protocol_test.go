package protocol

import (
	"strings"
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
)

// harness wires a protocol to a fresh store and counts checkpoints.
type harness struct {
	store *storage.Store
	taken []*storage.Record
}

func newHarness() *harness {
	return &harness{store: storage.NewStore(storage.DefaultCostModel())}
}

func (h *harness) checkpointer() Checkpointer {
	return func(host mobile.HostID, index int, kind storage.Kind) *storage.Record {
		r := h.store.Take(host, 0, index, kind, 0)
		h.taken = append(h.taken, r)
		return r
	}
}

func (h *harness) count(kind storage.Kind) int {
	n := 0
	for _, r := range h.taken {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// send delivers one message end to end through a protocol.
func send(p Protocol, from, to mobile.HostID) {
	pb := p.OnSend(from, to)
	p.OnDeliver(to, from, pb)
}

func staticMSS(h mobile.HostID) mobile.MSSID { return mobile.MSSID(int(h) % 5) }

func TestTPInit(t *testing.T) {
	h := newHarness()
	tp := NewTP(3, h.checkpointer(), staticMSS)
	tp.Init()
	if h.count(storage.Initial) != 3 {
		t.Fatalf("initial checkpoints = %d", h.count(storage.Initial))
	}
	for i := mobile.HostID(0); i < 3; i++ {
		if tp.PhaseOf(i) != RECV {
			t.Fatalf("host %d phase %v", i, tp.PhaseOf(i))
		}
		v := tp.DependencyVector(i)
		if v[i] != 0 {
			t.Fatalf("own interval should be 0, got %v", v)
		}
	}
}

func TestTPForcedOnReceiveInSendPhase(t *testing.T) {
	h := newHarness()
	tp := NewTP(2, h.checkpointer(), staticMSS)
	tp.Init()

	// Host 0 sends: enters SEND phase. Receiving now forces a checkpoint.
	pb := tp.OnSend(0, 1)
	if tp.PhaseOf(0) != SEND {
		t.Fatal("sender must enter SEND phase")
	}
	// Host 1 is in RECV phase: delivery does NOT force.
	tp.OnDeliver(1, 0, pb)
	if h.count(storage.Forced) != 0 {
		t.Fatal("receive in RECV phase must not force")
	}
	// Host 1 replies (enters SEND), then receives: forced.
	pb2 := tp.OnSend(1, 0)
	tp.OnDeliver(0, 1, pb2) // host 0 was in SEND phase -> forced
	if h.count(storage.Forced) != 1 {
		t.Fatalf("forced = %d, want 1", h.count(storage.Forced))
	}
	if tp.PhaseOf(0) != RECV {
		t.Fatal("forced checkpoint must flip phase to RECV")
	}
	// Receiving again while in RECV: no second forced checkpoint.
	pb3 := tp.OnSend(1, 0)
	tp.OnDeliver(0, 1, pb3)
	if h.count(storage.Forced) != 1 {
		t.Fatal("second receive in RECV phase must not force")
	}
}

func TestTPVectorMergeAndMeta(t *testing.T) {
	h := newHarness()
	tp := NewTP(3, h.checkpointer(), staticMSS)
	tp.Init()
	// Host 0 checkpoints twice more via cell switches: interval 2.
	tp.OnCellSwitch(0, 1)
	tp.OnCellSwitch(0, 2)
	send(tp, 0, 1)
	v := tp.DependencyVector(1)
	if v[0] != 2 {
		t.Fatalf("host 1 must depend on host 0's interval 2, got %v", v)
	}
	// Transitivity: 1 -> 2 propagates the dependency on 0.
	send(tp, 1, 2)
	v2 := tp.DependencyVector(2)
	if v2[0] != 2 || v2[1] != 0 {
		t.Fatalf("host 2 vector %v", v2)
	}
	// Meta recorded at checkpoints.
	rec := h.store.Latest(0)
	m, ok := tp.Meta(rec)
	if !ok {
		t.Fatal("no meta for checkpoint")
	}
	if m.Ckpt[0] != 2 {
		t.Fatalf("meta ckpt %v", m.Ckpt)
	}
	if _, ok := tp.Meta(&storage.Record{}); ok {
		t.Fatal("foreign record must have no meta")
	}
}

func TestTPLocationVector(t *testing.T) {
	h := newHarness()
	cur := map[mobile.HostID]mobile.MSSID{0: 0, 1: 1}
	tp := NewTP(2, h.checkpointer(), func(x mobile.HostID) mobile.MSSID { return cur[x] })
	tp.Init()
	if lv := tp.LocationVector(0); lv[0] != 0 {
		t.Fatalf("loc %v", lv)
	}
	cur[0] = 3
	tp.OnCellSwitch(0, 3)
	if lv := tp.LocationVector(0); lv[0] != 3 {
		t.Fatalf("loc after switch %v", lv)
	}
	// The location travels with dependencies.
	send(tp, 0, 1)
	if lv := tp.LocationVector(1); lv[0] != 3 {
		t.Fatalf("receiver's loc for host 0 = %v", lv)
	}
}

func TestTPBasicCheckpoints(t *testing.T) {
	h := newHarness()
	tp := NewTP(2, h.checkpointer(), staticMSS)
	tp.Init()
	tp.OnCellSwitch(0, 1)
	tp.OnDisconnect(0)
	tp.OnReconnect(0, 2)
	if h.count(storage.Basic) != 2 {
		t.Fatalf("basic = %d, want 2 (switch + disconnect)", h.count(storage.Basic))
	}
}

func TestTPPiggybackBytes(t *testing.T) {
	h := newHarness()
	tp := NewTP(10, h.checkpointer(), staticMSS)
	tp.Init()
	tp.OnSend(0, 1)
	if tp.PiggybackBytes() != 2*10*8 {
		t.Fatalf("piggyback = %d, want 160", tp.PiggybackBytes())
	}
}

func TestTPName(t *testing.T) {
	if NewTP(1, newHarness().checkpointer(), staticMSS).Name() != "TP" {
		t.Fatal("name")
	}
}

func TestBCSForcingRule(t *testing.T) {
	h := newHarness()
	b := NewBCS(3, h.checkpointer())
	b.Init()
	// Host 0 switches cell twice: sn=2.
	b.OnCellSwitch(0, 1)
	b.OnCellSwitch(0, 2)
	if b.SequenceNumber(0) != 2 {
		t.Fatalf("sn = %d", b.SequenceNumber(0))
	}
	// Message from 0 (sn=2) to 1 (sn=0): forced checkpoint with index 2.
	send(b, 0, 1)
	if b.SequenceNumber(1) != 2 {
		t.Fatalf("receiver sn = %d", b.SequenceNumber(1))
	}
	if h.count(storage.Forced) != 1 {
		t.Fatalf("forced = %d", h.count(storage.Forced))
	}
	if rec := h.store.Latest(1); rec.Index != 2 || rec.Kind != storage.Forced {
		t.Fatalf("forced record %+v", rec)
	}
	// Message at the same index does not force again.
	send(b, 0, 1)
	if h.count(storage.Forced) != 1 {
		t.Fatal("equal index must not force")
	}
	// Message from a lower index does not force.
	send(b, 2, 1)
	if h.count(storage.Forced) != 1 {
		t.Fatal("lower index must not force")
	}
}

func TestBCSDisconnectIncrements(t *testing.T) {
	h := newHarness()
	b := NewBCS(1, h.checkpointer())
	b.Init()
	b.OnDisconnect(0)
	if b.SequenceNumber(0) != 1 {
		t.Fatalf("sn = %d", b.SequenceNumber(0))
	}
	b.OnReconnect(0, 2)
	if b.SequenceNumber(0) != 1 {
		t.Fatal("reconnect must not change sn")
	}
	if h.count(storage.Basic) != 1 {
		t.Fatalf("basic = %d", h.count(storage.Basic))
	}
}

func TestBCSPiggybackBytes(t *testing.T) {
	h := newHarness()
	b := NewBCS(10, h.checkpointer())
	b.Init()
	b.OnSend(0, 1)
	b.OnSend(0, 2)
	if b.PiggybackBytes() != 16 {
		t.Fatalf("piggyback = %d", b.PiggybackBytes())
	}
}

func TestQBCReplacementRule(t *testing.T) {
	h := newHarness()
	q := NewQBC(2, h.checkpointer(), h.store)
	q.Init()
	// rn=-1 < sn=0: the first basic checkpoint keeps index 0 and
	// supersedes the initial checkpoint.
	q.OnCellSwitch(0, 1)
	if q.SequenceNumber(0) != 0 {
		t.Fatalf("sn = %d, want 0 (replacement)", q.SequenceNumber(0))
	}
	if q.Replacements() != 1 {
		t.Fatalf("replacements = %d", q.Replacements())
	}
	chain := h.store.Chain(0)
	if len(chain) != 2 || !chain[0].Superseded || chain[1].Superseded {
		t.Fatalf("supersession wrong: %+v %+v", chain[0], chain[1])
	}
	// Now host 0 receives index 0 from host 1: rn=0=sn, so the next
	// basic checkpoint increments.
	send(q, 1, 0)
	if q.ReceiveNumber(0) != 0 {
		t.Fatalf("rn = %d", q.ReceiveNumber(0))
	}
	q.OnCellSwitch(0, 2)
	if q.SequenceNumber(0) != 1 {
		t.Fatalf("sn = %d, want 1 (increment)", q.SequenceNumber(0))
	}
}

func TestQBCForcedMatchesBCS(t *testing.T) {
	h := newHarness()
	q := NewQBC(2, h.checkpointer(), h.store)
	q.Init()
	q.OnCellSwitch(0, 1) // replacement: sn stays 0
	send(q, 1, 0)        // rn=0=sn
	q.OnCellSwitch(0, 2) // increment: sn=1
	send(q, 0, 1)        // 1 had sn=0, m.sn=1 > 0: forced
	if q.SequenceNumber(1) != 1 {
		t.Fatalf("receiver sn = %d", q.SequenceNumber(1))
	}
	if h.count(storage.Forced) != 1 {
		t.Fatalf("forced = %d", h.count(storage.Forced))
	}
	// After a forced checkpoint rn = sn, so a basic checkpoint increments.
	q.OnDisconnect(1)
	if q.SequenceNumber(1) != 2 {
		t.Fatalf("sn after basic = %d", q.SequenceNumber(1))
	}
}

// Invariant from [14]: rn_i <= sn_i at all times, and on any interleaving
// QBC's index never exceeds BCS's when both observe the same events.
func TestQBCNeverAheadOfBCS(t *testing.T) {
	src := rng.New(1234)
	totalB, totalQ := 0, 0
	for trial := 0; trial < 200; trial++ {
		const n = 4
		hb := newHarness()
		hq := newHarness()
		b := NewBCS(n, hb.checkpointer())
		q := NewQBC(n, hq.checkpointer(), hq.store)
		b.Init()
		q.Init()
		for step := 0; step < 300; step++ {
			h := mobile.HostID(src.Intn(n))
			switch src.Intn(3) {
			case 0: // message
				to := mobile.HostID(src.Intn(n))
				if to == h {
					continue
				}
				pbB := b.OnSend(h, to)
				pbQ := q.OnSend(h, to)
				b.OnDeliver(to, h, pbB)
				q.OnDeliver(to, h, pbQ)
			case 1:
				b.OnCellSwitch(h, mobile.MSSID(src.Intn(5)))
				q.OnCellSwitch(h, mobile.MSSID(src.Intn(5)))
			case 2:
				b.OnDisconnect(h)
				q.OnDisconnect(h)
				b.OnReconnect(h, 0)
				q.OnReconnect(h, 0)
			}
			for i := mobile.HostID(0); i < n; i++ {
				if q.ReceiveNumber(i) > q.SequenceNumber(i) {
					t.Fatalf("trial %d: rn > sn on host %d", trial, i)
				}
				if q.SequenceNumber(i) > b.SequenceNumber(i) {
					t.Fatalf("trial %d: QBC sn %d > BCS sn %d on host %d",
						trial, q.SequenceNumber(i), b.SequenceNumber(i), i)
				}
			}
		}
		totalB += len(hb.taken)
		totalQ += len(hq.taken)
	}
	// The reduction claim of [6,14] is statistical, not per-trace: assert
	// it in aggregate over the 200 random executions.
	if totalQ > totalB {
		t.Fatalf("QBC took %d checkpoints in aggregate, BCS %d", totalQ, totalB)
	}
}

func TestUncoordinated(t *testing.T) {
	h := newHarness()
	u := NewUncoordinated(2, h.checkpointer())
	u.Init()
	if u.OnSend(0, 1) != nil {
		t.Fatal("no piggyback expected")
	}
	u.OnDeliver(1, 0, nil)
	if h.count(storage.Forced) != 0 {
		t.Fatal("uncoordinated must never force")
	}
	u.OnCellSwitch(0, 1)
	u.OnDisconnect(1)
	u.OnReconnect(1, 0)
	if h.count(storage.Basic) != 2 {
		t.Fatalf("basic = %d", h.count(storage.Basic))
	}
	if u.PiggybackBytes() != 0 {
		t.Fatal("piggyback must be zero")
	}
	if u.Name() != "UNC" {
		t.Fatal("name")
	}
}

func TestChandyLamportSnapshot(t *testing.T) {
	h := newHarness()
	c := NewChandyLamport(3, h.checkpointer())
	c.Init()
	targets := c.BeginSnapshot()
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	for _, x := range targets {
		c.OnMarker(x)
	}
	if h.count(storage.Forced) != 3 {
		t.Fatalf("forced = %d", h.count(storage.Forced))
	}
	if c.ControlMessages() != 3 {
		t.Fatalf("ctrl = %d", c.ControlMessages())
	}
	c.OnCellSwitch(0, 1)
	if h.count(storage.Basic) != 1 {
		t.Fatal("basic checkpoint missing")
	}
}

func TestPrakashSinghalDirtySet(t *testing.T) {
	h := newHarness()
	p := NewPrakashSinghal(4, h.checkpointer())
	p.Init()
	// Nobody communicated: empty snapshot.
	if targets := p.BeginSnapshot(); len(targets) != 0 {
		t.Fatalf("targets = %v", targets)
	}
	// 0 sends to 1: both dirty; 2 and 3 are not involved.
	send(p, 0, 1)
	targets := p.BeginSnapshot()
	if len(targets) != 2 || targets[0] != 0 || targets[1] != 1 {
		t.Fatalf("targets = %v", targets)
	}
	for _, x := range targets {
		p.OnMarker(x)
	}
	if h.count(storage.Forced) != 2 {
		t.Fatalf("forced = %d", h.count(storage.Forced))
	}
	if p.ControlMessages() != 2 {
		t.Fatalf("ctrl = %d", p.ControlMessages())
	}
	// The dirty set resets after each round.
	if targets := p.BeginSnapshot(); len(targets) != 0 {
		t.Fatalf("dirty set not reset: %v", targets)
	}
	p.OnDisconnect(3)
	if h.count(storage.Basic) != 1 {
		t.Fatal("basic checkpoint missing")
	}
}

func TestPhaseString(t *testing.T) {
	if RECV.String() != "RECV" || SEND.String() != "SEND" {
		t.Fatal("phase strings")
	}
}

func BenchmarkBCSDeliver(b *testing.B) {
	h := newHarness()
	p := NewBCS(10, h.checkpointer())
	p.Init()
	pb := p.OnSend(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnDeliver(1, 0, pb)
	}
}

func BenchmarkTPDeliver(b *testing.B) {
	h := newHarness()
	p := NewTP(10, h.checkpointer(), staticMSS)
	p.Init()
	pb := p.OnSend(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnDeliver(1, 0, pb)
	}
}

func TestMSTickIncrements(t *testing.T) {
	h := newHarness()
	m := NewMS(2, h.checkpointer())
	m.Init()
	m.OnTick(0)
	m.OnTick(0)
	if m.SequenceNumber(0) != 2 {
		t.Fatalf("sn = %d", m.SequenceNumber(0))
	}
	if h.count(storage.Basic) != 2 {
		t.Fatalf("basic = %d", h.count(storage.Basic))
	}
	// Forcing rule is BCS's.
	send(m, 0, 1)
	if m.SequenceNumber(1) != 2 || h.count(storage.Forced) != 1 {
		t.Fatalf("forced rule broken: sn=%d forced=%d", m.SequenceNumber(1), h.count(storage.Forced))
	}
	// Mobility still bumps the index.
	m.OnCellSwitch(1, 2)
	m.OnDisconnect(1)
	m.OnReconnect(1, 0)
	if m.SequenceNumber(1) != 4 {
		t.Fatalf("sn = %d", m.SequenceNumber(1))
	}
	if m.Name() != "MS" {
		t.Fatal("name")
	}
	m.OnSend(0, 1)
	if m.PiggybackBytes() != 2*8 { // one send() above plus this OnSend
		t.Fatalf("piggyback = %d", m.PiggybackBytes())
	}
}

// TestRegistryBuildsWhatItNames pins the registry's table order (the
// order sim.AllProtocols and every table print), that each entry's
// constructor really builds the protocol it is filed under, and that the
// entry's flags match the built type's method set: a core that leaked
// OnTick, BeginSnapshot or SequenceNumber into the wrong family fails
// here.
func TestRegistryBuildsWhatItNames(t *testing.T) {
	want := []string{"TP", "BCS", "QBC", "UNC", "CL", "PS", "MS"}
	if len(registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(registry), len(want))
	}
	for i, e := range registry {
		if e.Name != want[i] {
			t.Errorf("entry %d is %s, want %s", i, e.Name, want[i])
		}
		store := storage.NewStore(storage.DefaultCostModel())
		ck := func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
			return store.Take(h, 0, index, kind, 0)
		}
		p := e.New(3, ck, store, func(mobile.HostID) mobile.MSSID { return 0 })
		if p.Name() != e.Name {
			t.Errorf("%s: constructor builds %s", e.Name, p.Name())
		}
		_, initiator := p.(Initiator)
		_, periodic := p.(Periodic)
		if e.Coordinated != (initiator || periodic) {
			t.Errorf("%s: Coordinated = %v, but Initiator = %v, Periodic = %v", e.Name, e.Coordinated, initiator, periodic)
		}
		_, sequenced := p.(interface{ SequenceNumber(mobile.HostID) int })
		if e.IndexBased != sequenced {
			t.Errorf("%s: IndexBased = %v, but SequenceNumber = %v", e.Name, e.IndexBased, sequenced)
		}
	}
}

// TestJoinContract holds every registered protocol to OnJoin's contract:
// a dense id is admitted with exactly one Initial checkpoint at index 0
// and the protocol's own join cost; a non-dense one panics naming the
// protocol.
func TestJoinContract(t *testing.T) {
	ctrl := map[string]int64{"TP": 3, "CL": 1, "PS": 1}
	for _, e := range registry {
		t.Run(e.Name, func(t *testing.T) {
			h := newHarness()
			p := e.New(3, h.checkpointer(), h.store, func(mobile.HostID) mobile.MSSID { return 0 })
			p.Init()
			before := len(h.taken)
			if got := p.OnJoin(3); got != ctrl[e.Name] {
				t.Errorf("OnJoin(3) = %d control messages, want %d", got, ctrl[e.Name])
			}
			added := h.taken[before:]
			if len(added) != 1 || added[0].Host != 3 || added[0].Index != 0 || added[0].Kind != storage.Initial {
				t.Fatalf("OnJoin(3) took %+v, want one Initial checkpoint of host 3 at index 0", added)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, e.Name+" join with non-dense host id") {
					t.Errorf("OnJoin(5) panicked with %q, want the non-dense panic naming %s", msg, e.Name)
				}
			}()
			p.OnJoin(5)
		})
	}
}
