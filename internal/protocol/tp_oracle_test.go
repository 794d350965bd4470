package protocol_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/race"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
	"mobickpt/internal/vclock"
	"mobickpt/internal/wire"
)

// tpImpl is the surface the script drives and compares: protocol.TP and
// the dense reference below both provide it.
type tpImpl interface {
	protocol.Protocol
	Meta(rec *storage.Record) (protocol.TPPiggyback, bool)
	PhaseOf(h mobile.HostID) protocol.Phase
	DependencyVector(h mobile.HostID) vclock.Vector
	LocationVector(h mobile.HostID) vclock.Vector
}

// denseTP is TP with every vector copied in full wherever one is needed —
// a clone pair per checkpoint, a clone pair per send, vclock's dense
// paired merge on delivery. It is what protocol.TP was before its vectors
// became a change log, minus the buffer pooling, and is kept as the
// definition protocol.TP must equal step for step.
type denseTP struct {
	ckpt  protocol.Checkpointer
	mssOf func(mobile.HostID) mobile.MSSID

	phase   []protocol.Phase
	ckptVec []vclock.Vector
	locVec  []vclock.Vector
	meta    map[*storage.Record]protocol.TPPiggyback
	bytes   int64
}

func newDenseTP(n int, ckpt protocol.Checkpointer, mssOf func(mobile.HostID) mobile.MSSID) *denseTP {
	d := &denseTP{ckpt: ckpt, mssOf: mssOf, phase: make([]protocol.Phase, n),
		meta: make(map[*storage.Record]protocol.TPPiggyback)}
	for i := 0; i < n; i++ {
		d.ckptVec = append(d.ckptVec, vclock.New(n, -1))
		d.locVec = append(d.locVec, vclock.New(n, -1))
	}
	return d
}

func (d *denseTP) Name() string { return "TP" }

func (d *denseTP) Init() {
	for i := range d.phase {
		d.takeCheckpoint(mobile.HostID(i), storage.Initial)
	}
}

func (d *denseTP) takeCheckpoint(h mobile.HostID, kind storage.Kind) {
	d.ckptVec[h][h]++
	d.locVec[h][h] = int(d.mssOf(h))
	rec := d.ckpt(h, d.ckptVec[h][h], kind)
	d.meta[rec] = protocol.TPPiggyback{Ckpt: d.ckptVec[h].Clone(), Loc: d.locVec[h].Clone()}
}

func (d *denseTP) OnSend(from, to mobile.HostID) any {
	d.phase[from] = protocol.SEND
	d.bytes += int64(16 * len(d.phase))
	return protocol.TPPiggyback{Ckpt: d.ckptVec[from].Clone(), Loc: d.locVec[from].Clone()}
}

func (d *denseTP) OnDeliver(h, from mobile.HostID, pb any) {
	if d.phase[h] == protocol.SEND {
		d.takeCheckpoint(h, storage.Forced)
		d.phase[h] = protocol.RECV
	}
	v := pb.(protocol.TPPiggyback)
	d.ckptVec[h].MergeWithLocations(d.locVec[h], v.Ckpt, v.Loc)
}

func (d *denseTP) OnCellSwitch(h mobile.HostID, newMSS mobile.MSSID) {
	d.takeCheckpoint(h, storage.Basic)
}
func (d *denseTP) OnDisconnect(h mobile.HostID)                 { d.takeCheckpoint(h, storage.Basic) }
func (d *denseTP) OnReconnect(h mobile.HostID, at mobile.MSSID) {}
func (d *denseTP) PiggybackBytes() int64                        { return d.bytes }

func (d *denseTP) OnJoin(h mobile.HostID) int64 {
	n := len(d.phase) + 1
	d.phase = append(d.phase, protocol.RECV)
	for i := range d.ckptVec {
		d.ckptVec[i] = d.ckptVec[i].Grow(n, -1)
		d.locVec[i] = d.locVec[i].Grow(n, -1)
	}
	d.ckptVec = append(d.ckptVec, vclock.New(n, -1))
	d.locVec = append(d.locVec, vclock.New(n, -1))
	d.takeCheckpoint(h, storage.Initial)
	return int64(n - 1)
}

func (d *denseTP) Meta(rec *storage.Record) (protocol.TPPiggyback, bool) {
	m, ok := d.meta[rec]
	return m, ok
}
func (d *denseTP) PhaseOf(h mobile.HostID) protocol.Phase         { return d.phase[h] }
func (d *denseTP) DependencyVector(h mobile.HostID) vclock.Vector { return d.ckptVec[h].Clone() }
func (d *denseTP) LocationVector(h mobile.HostID) vclock.Vector   { return d.locVec[h].Clone() }

type tpOpKind int

const (
	tpSend tpOpKind = iota
	tpDeliver
	tpSwitch
	tpDisconnect
	tpReconnect
	tpJoin
)

// tpOp is one step of a script. For a send, h is the sender and peer the
// destination; for a delivery, h is the receiver and peer the sender.
type tpOp struct {
	kind    tpOpKind
	h, peer mobile.HostID
	msg     int          // send, deliver: which message
	mss     mobile.MSSID // switch, reconnect, join: the station moved to
	dense   bool         // deliver: hand over the wire-decoded dense form
	held    bool         // deliver: a message kept back until the script's end
}

// tpScript generates a seeded random script of steps steps over n hosts
// (n+joins at the end, the joins evenly spaced). Three quarters of the
// steps pick one of four hot hosts, so that their vectors change often
// enough to start many log arrays; a disconnected host reconnects the next
// time it is picked; deliveries happen in random order; every hot host's
// first message is held back to the very end, in flight across all of
// that; a fifth of the deliveries hand over the dense form a wire decode
// produces.
func tpScript(n, steps, joins int, seed uint64) []tpOp {
	src := rng.New(seed)
	connected := make([]bool, n, n+joins)
	for i := range connected {
		connected[i] = true
	}
	type msg struct {
		id       int
		from, to mobile.HostID
	}
	var flying, held []msg
	sentFirst := map[mobile.HostID]bool{}
	hot := min(4, n)
	pick := func() mobile.HostID {
		if src.Intn(4) > 0 {
			return mobile.HostID(src.Intn(hot))
		}
		return mobile.HostID(src.Intn(len(connected)))
	}
	deliver := func(m msg, isHeld bool) tpOp {
		return tpOp{kind: tpDeliver, h: m.to, peer: m.from, msg: m.id, dense: src.Intn(5) == 0, held: isHeld}
	}
	var ops []tpOp
	msgs, joinEvery := 0, steps/(joins+1)
	for len(ops) < steps {
		if len(connected) < cap(connected) && len(ops) >= joinEvery*(len(connected)-n+1) {
			ops = append(ops, tpOp{kind: tpJoin, h: mobile.HostID(len(connected)), mss: mobile.MSSID(src.Intn(7))})
			connected = append(connected, true)
			continue
		}
		h := pick()
		if !connected[h] {
			ops = append(ops, tpOp{kind: tpReconnect, h: h, mss: mobile.MSSID(src.Intn(7))})
			connected[h] = true
			continue
		}
		switch r := src.Intn(100); {
		case r < 42:
			m := msg{msgs, h, pick()}
			if m.to == h {
				continue
			}
			msgs++
			ops = append(ops, tpOp{kind: tpSend, h: h, peer: m.to, msg: m.id})
			if int(h) < hot && !sentFirst[h] {
				sentFirst[h] = true
				held = append(held, m)
			} else {
				flying = append(flying, m)
			}
		case r < 86:
			if len(flying) == 0 {
				continue
			}
			i := src.Intn(len(flying))
			m := flying[i]
			if !connected[m.to] {
				continue
			}
			flying[i] = flying[len(flying)-1]
			flying = flying[:len(flying)-1]
			ops = append(ops, deliver(m, false))
		case r < 97:
			ops = append(ops, tpOp{kind: tpSwitch, h: h, mss: mobile.MSSID(src.Intn(7))})
		default:
			ops = append(ops, tpOp{kind: tpDisconnect, h: h})
			connected[h] = false
		}
	}
	for h, up := range connected {
		if !up {
			ops = append(ops, tpOp{kind: tpReconnect, h: mobile.HostID(h), mss: mobile.MSSID(src.Intn(7))})
		}
	}
	for _, m := range flying {
		ops = append(ops, deliver(m, false))
	}
	for _, m := range held {
		ops = append(ops, deliver(m, true))
	}
	return ops
}

// tpWorld is one TP implementation with the environment a script needs:
// a store its checkpoints go to and the stations LOC is read from.
type tpWorld struct {
	tp      tpImpl
	store   *storage.Store
	station []mobile.MSSID
	seen    []int // per host, the checkpoints observe has looked at
}

func newTPWorld(n int, dense bool) *tpWorld {
	w := &tpWorld{store: storage.NewStore(storage.DefaultCostModel()), station: make([]mobile.MSSID, n),
		seen: make([]int, n)}
	ckpt := func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		return w.store.Take(h, w.station[h], index, kind, 0)
	}
	mssOf := func(h mobile.HostID) mobile.MSSID { return w.station[h] }
	if dense {
		w.tp = newDenseTP(n, ckpt, mssOf)
	} else {
		w.tp = protocol.NewTP(n, ckpt, mssOf)
	}
	w.tp.Init()
	return w
}

// apply runs every kind of step but a delivery, returning a send's
// piggyback.
func (w *tpWorld) apply(op tpOp) any {
	switch op.kind {
	case tpSend:
		return w.tp.OnSend(op.h, op.peer)
	case tpSwitch:
		w.station[op.h] = op.mss
		w.tp.OnCellSwitch(op.h, op.mss)
	case tpDisconnect:
		w.tp.OnDisconnect(op.h)
	case tpReconnect:
		w.station[op.h] = op.mss
		w.tp.OnReconnect(op.h, op.mss)
	case tpJoin:
		w.station = append(w.station, op.mss)
		w.seen = append(w.seen, 0)
		w.tp.OnJoin(op.h)
	}
	return nil
}

// records counts the checkpoints on the world's stable storage.
func (w *tpWorld) records() int {
	total := 0
	for h := range w.station {
		total += len(w.store.Chain(mobile.HostID(h)))
	}
	return total
}

// tpHostState is everything observable about one host: its phase, its
// vectors, the checkpoint calls made for it (as the chain they left) and,
// if the newest was made since the last look, the vectors recorded with
// it.
type tpHostState struct {
	phase    protocol.Phase
	dep, loc vclock.Vector
	chain    int
	last     storage.Record
	meta     protocol.TPPiggyback
}

func (w *tpWorld) observe(h mobile.HostID) tpHostState {
	chain := w.store.Chain(h)
	last := chain[len(chain)-1]
	st := tpHostState{phase: w.tp.PhaseOf(h), dep: w.tp.DependencyVector(h), loc: w.tp.LocationVector(h),
		chain: len(chain), last: *last}
	if len(chain) > w.seen[h] {
		w.seen[h] = len(chain)
		st.meta, _ = w.tp.Meta(last)
	}
	return st
}

// diff describes the first difference between two states, "" if none.
func (a tpHostState) diff(b tpHostState) string {
	switch {
	case a.phase != b.phase:
		return fmt.Sprintf("phase %v, want %v", a.phase, b.phase)
	case !a.dep.Equal(b.dep):
		return fmt.Sprintf("CKPT %v, want %v", a.dep, b.dep)
	case !a.loc.Equal(b.loc):
		return fmt.Sprintf("LOC %v, want %v", a.loc, b.loc)
	case a.chain != b.chain || a.last != b.last:
		return fmt.Sprintf("%d checkpoints ending in %+v, want %d ending in %+v", a.chain, a.last, b.chain, b.last)
	case !a.meta.Ckpt.Equal(b.meta.Ckpt) || !a.meta.Loc.Equal(b.meta.Loc):
		return fmt.Sprintf("checkpoint %s recorded with %v / %v, want %v / %v",
			a.last.ID(), a.meta.Ckpt, a.meta.Loc, b.meta.Ckpt, b.meta.Loc)
	}
	return ""
}

// tpDelivery is a delivery the TP under test has not made yet.
type tpDelivery struct {
	step int
	op   tpOp
	pb   any         // what the TP under test returned from OnSend
	sent []byte      // its wire encoding when it was sent
	want tpHostState // the reference's receiver after the delivery
}

// TestTPMatchesDenseOracle drives protocol.TP and the dense reference
// through one script and compares, after every step, the state of the
// host the step touched, the checkpoint calls made for it, the vectors
// recorded with its newest checkpoint and the wire bytes of every
// piggyback — and at the end the vectors recorded with every checkpoint
// ever taken. TP makes each delivery late: just before the script next
// touches the receiver, while the script has moved the sender and every
// other host on meanwhile. The delivered view must still encode as it
// did when it was sent, so a view in flight shares no word its sender
// still writes.
func TestTPMatchesDenseOracle(t *testing.T) {
	for _, c := range []struct{ n, steps int }{{2, 3000}, {10, 6000}, {64, 12000}, {1000, 30000}} {
		t.Run(fmt.Sprint("n", c.n), func(t *testing.T) {
			if testing.Short() && c.n == 1000 {
				t.Skip("the 1000-wide script takes about 20 s under -race")
			}
			matchDenseOracle(t, c.n, tpScript(c.n, c.steps, 3, uint64(c.n)))
		})
	}
}

// matchDenseOracle returns the longest checkpoint chain a host took.
func matchDenseOracle(t *testing.T, n int, ops []tpOp) (longest int) {
	got, want := newTPWorld(n, false), newTPWorld(n, true)

	// pending holds, per receiver, the delivery TP has not made yet. It is
	// made just before the script next touches the receiver, or at a join,
	// which touches every host.
	pending := map[mobile.HostID]*tpDelivery{}
	settle := func(h mobile.HostID) {
		d := pending[h]
		if d == nil {
			return
		}
		delete(pending, h)
		// The sender may have checkpointed, merged and started a new log
		// array since it sent.
		now, err := wire.AppendPiggyback(nil, d.pb)
		if err != nil || !bytes.Equal(now, d.sent) {
			t.Errorf("step %d: message %d no longer encodes as it did when sent (err %v)", d.step, d.op.msg, err)
		}
		pb := d.pb
		if d.op.dense {
			if pb, _, err = wire.DecodePiggyback(d.sent); err != nil {
				t.Errorf("step %d: decode: %v", d.step, err)
			}
		}
		got.tp.OnDeliver(d.op.h, d.op.peer, pb)
		if diff := got.observe(d.op.h).diff(d.want); diff != "" {
			t.Errorf("step %d: host %d after delivery of message %d: %s", d.step, d.op.h, d.op.msg, diff)
		}
	}
	settleAll := func() {
		for h := range pending {
			settle(h)
		}
	}

	type flight struct {
		pb, ref any
		sent    []byte
		changes int // the sender's vector changes so far, when it sent
	}
	flying := map[int]flight{}
	changes := make([]int, n) // per host, entries raised so far
	last := make([]vclock.Vector, n)
	for h := range last {
		last[h] = want.tp.DependencyVector(mobile.HostID(h))
	}
	track := func(h mobile.HostID, dep vclock.Vector) {
		for j, x := range dep {
			was := -1 // what a join widens a vector with
			if j < len(last[h]) {
				was = last[h][j]
			}
			if x != was {
				changes[h]++
			}
		}
		last[h] = dep
	}
	sends, survived := 0, 0
	for step, op := range ops {
		if t.Failed() {
			return
		}
		if op.kind == tpJoin {
			settleAll()
			changes = append(changes, 0)
			last = append(last, nil)
		}
		settle(op.h)
		if op.kind == tpDeliver {
			f := flying[op.msg]
			delete(flying, op.msg)
			want.tp.OnDeliver(op.h, op.peer, f.ref)
			d := &tpDelivery{step: step, op: op, pb: f.pb, sent: f.sent, want: want.observe(op.h)}
			track(op.h, d.want.dep)
			if op.held {
				survived = max(survived, (changes[op.peer]-f.changes)/len(d.want.dep))
			}
			pending[op.h] = d
			continue
		}
		pb, ref := got.apply(op), want.apply(op)
		st := want.observe(op.h)
		if diff := got.observe(op.h).diff(st); diff != "" {
			t.Fatalf("step %d (%+v): host %d: %s", step, op, op.h, diff)
		}
		track(op.h, st.dep)
		if op.kind == tpSend {
			sends++
			sent, err := wire.AppendPiggyback(nil, pb)
			if err != nil {
				t.Fatalf("step %d: encoding the piggyback: %v", step, err)
			}
			if refSent, _ := wire.AppendPiggyback(nil, ref); !bytes.Equal(sent, refSent) {
				t.Fatalf("step %d: host %d piggybacks %x, want %x", step, op.h, sent, refSent)
			}
			flying[op.msg] = flight{pb, ref, sent, changes[op.h]}
		}
	}
	settleAll()
	if len(flying) != 0 {
		t.Fatalf("script left %d messages undelivered", len(flying))
	}
	t.Logf("a held message was in flight across %d widths of sender changes", survived)
	// A new log array starts within two widths' worth of changes, so four
	// widths' worth are two new arrays at least.
	if survived < 4 {
		t.Fatalf("script too tame: no held message was in flight across 4 widths of sender changes (best %d)", survived)
	}

	for h := range want.station {
		a, b := got.store.Chain(mobile.HostID(h)), want.store.Chain(mobile.HostID(h))
		longest = max(longest, len(a))
		if len(a) != len(b) {
			t.Fatalf("host %d holds %d checkpoints, want %d", h, len(a), len(b))
		}
		for k := range a {
			m, ok := got.tp.Meta(a[k])
			ref, _ := want.tp.Meta(b[k])
			if !ok || *a[k] != *b[k] || !m.Ckpt.Equal(ref.Ckpt) || !m.Loc.Equal(ref.Loc) {
				t.Fatalf("checkpoint %s (reference %s) recorded with %v / %v (ok=%v), want %v / %v",
					a[k].ID(), b[k].ID(), m.Ckpt, m.Loc, ok, ref.Ckpt, ref.Loc)
			}
		}
	}
	if got.tp.PiggybackBytes() != want.tp.PiggybackBytes() {
		t.Fatalf("piggyback accounting %d B, want %d B", got.tp.PiggybackBytes(), want.tp.PiggybackBytes())
	}
	if copies, reuses := got.tp.(*protocol.TP).SnapshotStats(); copies == 0 || copies+reuses != int64(sends) {
		t.Fatalf("SnapshotStats = (%d, %d) over %d sends", copies, reuses, sends)
	}
	return longest
}

// TestTPTablesAcrossChunks runs the oracle's script over two hosts long
// enough that a host's checkpoint list and station table (TP's taken and
// tpStations, column.Columns) cross the columns' full-size 4 096-entry
// chunks three times: the vectors recorded with every checkpoint, and
// every LOC entry read through a station table, must still equal the
// dense reference's.
func TestTPTablesAcrossChunks(t *testing.T) {
	const crossed = 4096 + 3*4096
	if longest := matchDenseOracle(t, 2, tpScript(2, 100000, 1, 11)); longest < crossed {
		t.Fatalf("the longest chain holds %d checkpoints, want at least %d", longest, crossed)
	}
}

// tpScriptMemory runs TestTPCheckpointAllocs' script — 30 000 steps over
// 1000 hosts — through protocol.TP and reports the bytes it allocated, the
// bytes still live after it, and the checkpoints it took.
func tpScriptMemory(t *testing.T) (allocated, retained int64, ckpts int) {
	const n = 1000
	ops := tpScript(n, 30000, 0, 7)
	w := newTPWorld(n, false)
	flying := map[int]any{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, op := range ops {
		switch op.kind {
		case tpSend:
			flying[op.msg] = w.apply(op)
		case tpDeliver:
			w.tp.OnDeliver(op.h, op.peer, flying[op.msg])
			delete(flying, op.msg)
		default:
			w.apply(op)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ckpts = w.records() - n
	if ckpts < 5000 {
		t.Fatalf("script took only %d checkpoints", ckpts)
	}
	runtime.KeepAlive(w)
	return int64(after.TotalAlloc - before.TotalAlloc), int64(after.HeapAlloc) - int64(before.HeapAlloc), ckpts
}

// TestTPCheckpointAllocs is the memory gate on what a checkpoint keeps:
// a 1000-wide TP run through the script retains under 1 600 B per
// checkpoint, everything the script's traffic added to its vectors'
// history included. Storing the CKPT vector whole is 4 kB, the two
// vectors 8 kB.
func TestTPCheckpointAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	_, retained, ckpts := tpScriptMemory(t)
	perCkpt := retained / int64(ckpts)
	t.Logf("%d checkpoints, %d B retained per checkpoint", ckpts, perCkpt)
	if perCkpt >= 1600 {
		t.Fatalf("run retains %d B per checkpoint, want < 1600", perCkpt)
	}
}

// TestTPHistoryAllocs is the memory gate on what the vectors' history
// throws away: over the same script, TP allocates at most 1.5 times what
// it retains. A log that outgrew its array and was copied into a larger
// one, or a frame taken and dropped before any view named it, would be
// garbage here.
func TestTPHistoryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	allocated, retained, _ := tpScriptMemory(t)
	ratio := float64(allocated) / float64(retained)
	t.Logf("allocated %d B, retained %d B: %.2fx", allocated, retained, ratio)
	if ratio > 1.5 {
		t.Fatalf("run allocates %.2fx what it retains, want at most 1.5x", ratio)
	}
}

// TestTPInitAllocs is the memory gate on set-up: constructing and
// initializing a 1000-wide TP allocates each host's current state — one
// 32-bit CKPT entry per host — and, beside it, at most 1 KiB per host
// (its station table among it), nothing that grows with the width.
func TestTPInitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := newTPWorld(n, false)
	runtime.ReadMemStats(&after)
	vectors := uint64(n * n * 4)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewTP(%d)+Init allocated %d B, the current vectors are %d B", n, got, vectors)
	if got > vectors+n<<10 {
		t.Fatalf("NewTP(%d)+Init allocated %d B, want at most the %d B of current vectors plus 1 KiB per host", n, got, vectors)
	}
	runtime.KeepAlive(w)
}

// BenchmarkTPExchange is the 1000-wide send→deliver cycle: a random
// sender's view delivered at once to a random other host, whose forced
// checkpoints go to a store. With -benchmem it reports the bytes a cycle
// allocates, the vectors' history it adds included. The world restarts
// every 10 000 cycles, off the clock, so a long run does not hold
// gigabytes.
func BenchmarkTPExchange(b *testing.B) {
	const n, cycles = 1000, 10000
	src := rng.New(7)
	var w *tpWorld
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%cycles == 0 {
			b.StopTimer()
			w = newTPWorld(n, false)
			b.StartTimer()
		}
		from := mobile.HostID(src.Intn(n))
		to := mobile.HostID((int(from) + 1 + src.Intn(n-1)) % n)
		w.tp.OnDeliver(to, from, w.tp.OnSend(from, to))
	}
}
