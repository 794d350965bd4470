package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/storage"
)

// testConfig is a scaled-down environment that keeps tests fast while
// exercising every mechanism (hand-offs, disconnections, forcing). The
// runtime invariant checker is on: every engine test doubles as an
// invariant test, and any violation fails the run.
func testConfig() Config {
	c := DefaultConfig()
	c.Horizon = 2000
	c.Workload.TSwitch = 200
	c.Workload.PSwitch = 0.8
	c.Workload.DisconnectMean = 300
	c.Checks = true
	return c
}

func mustRun(t *testing.T, c Config) *Result {
	t.Helper()
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.Horizon = 0
	if c.Validate() == nil {
		t.Fatal("zero horizon must fail")
	}
	c = DefaultConfig()
	c.Protocols = nil
	if c.Validate() == nil {
		t.Fatal("no protocols must fail")
	}
	c = DefaultConfig()
	c.Protocols = []ProtocolName{"XX"}
	if c.Validate() == nil {
		t.Fatal("unknown protocol must fail")
	}
	c = DefaultConfig()
	c.Protocols = []ProtocolName{BCS, BCS}
	if c.Validate() == nil {
		t.Fatal("duplicate protocol must fail")
	}
	c = DefaultConfig()
	c.Protocols = []ProtocolName{CL}
	c.SnapshotPeriod = 0
	if c.Validate() == nil {
		t.Fatal("CL without snapshot period must fail")
	}
}

func TestRunProducesActivity(t *testing.T) {
	res := mustRun(t, testConfig())
	if res.Workload.Sends == 0 || res.Workload.Receives == 0 {
		t.Fatalf("no communication: %+v", res.Workload)
	}
	if res.Workload.Handoffs == 0 || res.Workload.Disconnects == 0 {
		t.Fatalf("no mobility: %+v", res.Workload)
	}
	for _, pr := range res.Protocols {
		if pr.Initial != 10 {
			t.Fatalf("%s: initial = %d, want 10", pr.Name, pr.Initial)
		}
		if pr.Basic == 0 {
			t.Fatalf("%s: no basic checkpoints", pr.Name)
		}
		if pr.Ntot != pr.Basic+pr.Forced {
			t.Fatalf("%s: Ntot %d != basic %d + forced %d", pr.Name, pr.Ntot, pr.Basic, pr.Forced)
		}
		if pr.Energy.MHEnergy <= 0 {
			t.Fatalf("%s: energy not assessed", pr.Name)
		}
	}
	// Basic checkpoints are identical across protocols except for the
	// paper's protocols all taking them at the same mobility events.
	for _, pr := range res.Protocols[1:] {
		if pr.Basic != res.Protocols[0].Basic {
			t.Fatalf("basic checkpoint counts differ: %d vs %d", pr.Basic, res.Protocols[0].Basic)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, testConfig())
	b := mustRun(t, testConfig())
	for i := range a.Protocols {
		if a.Protocols[i].Ntot != b.Protocols[i].Ntot ||
			a.Protocols[i].Forced != b.Protocols[i].Forced {
			t.Fatalf("same seed diverged for %s", a.Protocols[i].Name)
		}
	}
	if a.Network != b.Network || a.Workload != b.Workload {
		t.Fatal("substrate counters diverged")
	}
}

// The shared-trace evaluation must agree exactly with per-protocol
// re-simulation (the design-choice ablation of DESIGN.md §5).
func TestSharedTraceMatchesSoloRuns(t *testing.T) {
	joint := mustRun(t, testConfig())
	for _, name := range PaperProtocols() {
		solo := testConfig()
		solo.Protocols = []ProtocolName{name}
		res := mustRun(t, solo)
		if res.Protocols[0].Ntot != joint.Protocol(name).Ntot {
			t.Fatalf("%s: solo Ntot %d != joint %d", name, res.Protocols[0].Ntot, joint.Protocol(name).Ntot)
		}
	}
}

func TestProtocolOrderingMatchesPaper(t *testing.T) {
	// On the paper's environment the ordering TP >= BCS >= QBC must hold
	// (§5.2) — evaluated on the same trace, so the comparison is exact.
	for _, tswitch := range []float64{200, 1000} {
		c := testConfig()
		c.Horizon = 5000
		c.Workload.TSwitch = tswitch
		res := mustRun(t, c)
		tp := res.Protocol(TP).Ntot
		bcs := res.Protocol(BCS).Ntot
		qbc := res.Protocol(QBC).Ntot
		if !(tp >= bcs && bcs >= qbc) {
			t.Fatalf("Tswitch=%v: ordering violated: TP=%d BCS=%d QBC=%d", tswitch, tp, bcs, qbc)
		}
	}
}

func TestUncoordinatedIsFloor(t *testing.T) {
	c := testConfig()
	c.Protocols = []ProtocolName{TP, BCS, QBC, UNC}
	res := mustRun(t, c)
	unc := res.Protocol(UNC)
	if unc.Forced != 0 {
		t.Fatalf("UNC forced = %d", unc.Forced)
	}
	for _, pr := range res.Protocols {
		if pr.Ntot < unc.Ntot {
			t.Fatalf("%s Ntot %d below the basic-checkpoint floor %d", pr.Name, pr.Ntot, unc.Ntot)
		}
	}
}

func TestCoordinatedBaselines(t *testing.T) {
	c := testConfig()
	c.Protocols = []ProtocolName{CL, PS}
	c.SnapshotPeriod = 50
	res := mustRun(t, c)
	cl, ps := res.Protocol(CL), res.Protocol(PS)
	if cl.Forced == 0 {
		t.Fatal("CL snapshots produced no checkpoints")
	}
	if cl.CtrlMessages == 0 || ps.CtrlMessages == 0 {
		t.Fatal("coordinated baselines must report control messages")
	}
	// PS only touches hosts that communicated, so it cannot exceed CL.
	if ps.Forced > cl.Forced || ps.CtrlMessages > cl.CtrlMessages {
		t.Fatalf("PS (%d forced, %d ctrl) exceeds CL (%d forced, %d ctrl)",
			ps.Forced, ps.CtrlMessages, cl.Forced, cl.CtrlMessages)
	}
}

// The central correctness property: the on-the-fly recovery lines of the
// index-based protocols are consistent (zero orphans) on real traces.
func TestIndexLinesAreConsistent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		c := testConfig()
		c.Seed = seed
		c.RecordTrace = true
		res := mustRun(t, c)
		for _, name := range []ProtocolName{BCS, QBC} {
			pr := res.Protocol(name)
			maxIdx := 0
			for h := 0; h < c.Mobile.NumHosts; h++ {
				for _, rec := range pr.Store.Chain(mobile.HostID(h)) {
					if int(rec.Index) > maxIdx {
						maxIdx = int(rec.Index)
					}
				}
			}
			for x := 0; x <= maxIdx; x++ {
				cut := recovery.IndexCut(pr.Store, c.Mobile.NumHosts, x)
				if n := recovery.Orphans(pr.Trace, cut); n != 0 {
					t.Fatalf("seed %d, %s: index line %d has %d orphans", seed, name, x, n)
				}
			}
		}
	}
}

// TP's vector-seeded recovery must be consistent after bounded
// propagation, and communication-induced protocols must roll back far
// less than the uncoordinated baseline.
func TestRecoveryAfterFailure(t *testing.T) {
	c := testConfig()
	c.Seed = 7
	c.RecordTrace = true
	c.Protocols = []ProtocolName{TP, BCS, QBC, UNC}
	res := mustRun(t, c)
	n := c.Mobile.NumHosts
	failed := mobile.HostID(3)

	for _, pr := range res.Protocols {
		cut, steps := pr.Slot().RecoveryLine(n, failed, nil)
		if recovery.Orphans(pr.Trace, cut) != 0 {
			t.Fatalf("%s: propagation left orphans", pr.Name)
		}
		m := recovery.Measure(pr.Trace, cut,
			func(h mobile.HostID) []*storage.Record { return pr.Store.Chain(h) },
			c.Horizon, steps)
		t.Logf("%s: rolledBack=%d undoneTime=%.0f domino=%d undoneMsgs=%d",
			pr.Name, m.RolledBackHosts, float64(m.UndoneTime), m.DominoSteps, m.UndoneMessages)
		if pr.Name == BCS || pr.Name == QBC {
			if steps != 0 {
				t.Fatalf("%s: index line needed %d propagation steps", pr.Name, steps)
			}
		}
	}
}

func TestReplicate(t *testing.T) {
	c := testConfig()
	sum, err := Replicate(c, Seeds(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sum.Protocols {
		if p.Ntot.N() != 3 {
			t.Fatalf("%s: %d runs", p.Name, p.Ntot.N())
		}
		if p.Ntot.Mean() <= 0 {
			t.Fatalf("%s: mean %v", p.Name, p.Ntot.Mean())
		}
	}
	if sum.Protocol(TP) == nil || sum.Protocol("nope") != nil {
		t.Fatal("protocol lookup wrong")
	}
	if _, err := Replicate(c, nil); err == nil {
		t.Fatal("empty seeds must fail")
	}
}

func TestSeeds(t *testing.T) {
	s := Seeds(10, 4)
	if len(s) != 4 || s[0] != 10 {
		t.Fatalf("seeds = %v", s)
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate seed")
		}
		seen[v] = true
	}
}

func TestFigureLookup(t *testing.T) {
	if len(PaperFigures()) != 6 {
		t.Fatal("paper has six figures")
	}
	if f := PaperFigures()[2]; f.ID != 3 || f.PSwitch != 1.0 || f.H != 0.50 {
		t.Fatalf("figure 3 = %+v", f)
	}
	if _, err := ParseTables("figure9"); err == nil {
		t.Fatal("figure 9 must not exist")
	}
}

func TestRunFigureSmall(t *testing.T) {
	base := testConfig()
	base.Horizon = 1000
	f := PaperFigures()[0]
	f.TSwitch = []float64{100, 500}
	tabs, err := SweepFigures([]FigureSpec{f}, base, Seeds(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Cell(0, 0) != "100" || tab.Cell(1, 0) != "500" {
		t.Fatalf("x column wrong: %q %q", tab.Cell(0, 0), tab.Cell(1, 0))
	}
}

func TestGainsSmall(t *testing.T) {
	base := testConfig()
	base.Horizon = 2000
	f := PaperFigures()[1]
	f.TSwitch = []float64{200, 1000}
	sums, err := SweepParallel(f.Points(base), Seeds(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Gains(f, sums)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TPOverIndexMax <= 0 {
		t.Fatalf("no gain of index protocols over TP: %+v", rep)
	}
	// Gains requires all three paper protocols.
	base.Protocols = []ProtocolName{BCS, QBC}
	if sums, err = SweepParallel(f.Points(base), Seeds(1, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Gains(f, sums); err == nil {
		t.Fatal("Gains without TP must fail")
	}
}

// A protocol result hands TP's recorded dependency vectors to the
// protocol side's recovery seed (ProtocolResult.Slot): a TP result seeds
// from the vector line of the failed host's latest checkpoint, and one
// without its live instance, which has no vectors to read, from the
// failure cut, as a logged recovery does.
func TestTPMetaAdapter(t *testing.T) {
	c := testConfig()
	c.Horizon = 500
	res := mustRun(t, c)
	n := c.Mobile.NumHosts
	tp := *res.Protocol(TP)
	meta, ok := tp.Instance.(*protocol.TP).Meta(tp.Store.LatestLive(0))
	if !ok || len(meta.Ckpt) != n {
		t.Fatalf("vectors %v ok=%v", meta.Ckpt, ok)
	}
	if got, want := tp.Slot().RecoverySeed(n, 0, false), recovery.VectorCut(tp.Store, meta.Ckpt, n, 0); !slices.Equal(got, want) {
		t.Fatalf("TP seeds %v, its vector line is %v", got, want)
	}
	failure := tp.Slot().RecoverySeed(n, 0, true)
	if failure.RolledBack() == tp.Slot().RecoverySeed(n, 0, false).RolledBack() {
		t.Fatal("TP's vector line rolls back no host but the failed one: nothing tells the two seeds apart")
	}
	tp.Instance = nil
	if got := tp.Slot().RecoverySeed(n, 0, false); !slices.Equal(got, failure) {
		t.Fatalf("TP without its instance seeds %v, want the failure cut %v", got, failure)
	}
}

// TestCheckpointLatencyClaim reproduces the paper's §5.1 robustness
// observation: "we simulated situations in which the time for taking a
// checkpoint is non negligible and we did not found a remarkable impact
// on the number of taken checkpoints" (E10).
func TestCheckpointLatencyClaim(t *testing.T) {
	base := testConfig()
	base.Horizon = 20000
	base.Protocols = []ProtocolName{QBC}

	run := func(latency float64) int64 {
		c := base
		c.CheckpointLatency = des.Time(latency)
		return mustRun(t, c).Protocols[0].Ntot
	}
	zero := run(0)
	slow := run(1.0) // a full mean operation time per checkpoint
	diff := math.Abs(float64(zero-slow)) / float64(zero)
	if diff > 0.10 {
		t.Fatalf("checkpoint latency changed Ntot by %.1f%% (%d vs %d); paper reports no remarkable impact",
			diff*100, zero, slow)
	}
}

func TestCheckpointLatencyValidation(t *testing.T) {
	c := testConfig()
	c.CheckpointLatency = 1
	if c.Validate() == nil {
		t.Fatal("latency with multiple protocols must fail validation")
	}
	c.Protocols = []ProtocolName{BCS}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.CheckpointLatency = -1
	if c.Validate() == nil {
		t.Fatal("negative latency must fail validation")
	}
}

// MS adds timer-driven basic checkpoints on top of mobility's, so it
// must take at least as many checkpoints as BCS on the same trace, and
// its index lines must be consistent too (it is the same index theory).
func TestMSExtension(t *testing.T) {
	c := testConfig()
	c.Protocols = []ProtocolName{BCS, MS}
	c.SnapshotPeriod = 100
	c.RecordTrace = true
	res := mustRun(t, c)
	bcs, ms := res.Protocol(BCS), res.Protocol(MS)
	if ms.Basic <= bcs.Basic {
		t.Fatalf("MS basic %d must exceed BCS basic %d (timer ticks)", ms.Basic, bcs.Basic)
	}
	cut := recovery.IndexCut(ms.Store, c.Mobile.NumHosts, 3)
	if n := recovery.Orphans(ms.Trace, cut); n != 0 {
		t.Fatalf("MS index line has %d orphans", n)
	}
}

// Garbage collection after a run must shrink stable storage while
// keeping every surviving recovery line consistent and every host's
// latest checkpoint available.
func TestGarbageCollectionIntegration(t *testing.T) {
	c := testConfig()
	c.Horizon = 5000
	c.RecordTrace = true
	res := mustRun(t, c)
	n := c.Mobile.NumHosts
	for _, name := range []ProtocolName{BCS, QBC} {
		pr := res.Protocol(name)
		before := pr.Store.LiveRecords(-1)
		records, units := recovery.CollectGarbage(pr.Store, n)
		if records == 0 || units == 0 {
			t.Fatalf("%s: nothing collected from %d records", name, before)
		}
		if got := pr.Store.LiveRecords(-1); got != before-records {
			t.Fatalf("%s: live %d, want %d", name, got, before-records)
		}
		// Every line from the lowest latest index up must have survived.
		minIdx, maxIdx := math.MaxInt, 0
		for h := 0; h < n; h++ {
			rec := pr.Store.LatestLive(mobile.HostID(h))
			if rec == nil {
				t.Fatalf("%s: host %d lost its latest checkpoint", name, h)
			}
			minIdx, maxIdx = min(minIdx, int(rec.Index)), max(maxIdx, int(rec.Index))
		}
		for x := minIdx; x <= maxIdx; x++ {
			cut := recovery.IndexCut(pr.Store, n, x)
			if o := recovery.Orphans(pr.Trace, cut); o != 0 {
				t.Fatalf("%s: post-GC line %d has %d orphans", name, x, o)
			}
		}
	}
}

// Parallel replication must be bit-identical to sequential replication.
func TestReplicateParallelMatchesSequential(t *testing.T) {
	c := testConfig()
	seeds := Seeds(1, 6)
	seq, err := Replicate(c, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		par, err := ReplicateParallel(c, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Protocols {
			if seq.Protocols[i].Ntot.Mean() != par.Protocols[i].Ntot.Mean() ||
				seq.Protocols[i].Ntot.StdDev() != par.Protocols[i].Ntot.StdDev() {
				t.Fatalf("workers=%d: %s diverged: %v vs %v", workers,
					seq.Protocols[i].Name, seq.Protocols[i].Ntot.Mean(), par.Protocols[i].Ntot.Mean())
			}
		}
	}
	if _, err := ReplicateParallel(c, nil, 2); err == nil {
		t.Fatal("empty seeds must fail")
	}
	bad := c
	bad.Protocols = nil
	if _, err := ReplicateParallel(bad, seeds, 2); err == nil {
		t.Fatal("invalid config must fail")
	}
}

// A run failing mid-batch must surface its error deterministically (the
// earliest failing seed in seed order, not completion order) and must
// not deadlock the feeder goroutine while workers bail out.
func TestReplicateParallelSeedErrors(t *testing.T) {
	c := testConfig()
	seeds := Seeds(1, 8)
	real := runSim
	t.Cleanup(func() { runSim = real })
	runSim = func(cc Config) (*Result, error) {
		if cc.Seed == seeds[2] || cc.Seed == seeds[5] {
			return nil, fmt.Errorf("injected failure for seed %d", cc.Seed)
		}
		return real(cc)
	}

	for _, workers := range []int{1, 3, 8} {
		done := make(chan struct{})
		var sum *Summary
		var err error
		go func() {
			sum, err = ReplicateParallel(c, seeds, workers)
			close(done)
		}()
		select {
		case <-done:
		//lint:allow simlint/detlint wall-clock watchdog guarding the test harness itself, not simulated time
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: ReplicateParallel deadlocked on a failing seed", workers)
		}
		if err == nil {
			t.Fatalf("workers=%d: injected failure not reported", workers)
		}
		if want := fmt.Sprint(seeds[2]); !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %q does not name the earliest failing seed %s",
				workers, err, want)
		}
		if sum != nil {
			t.Fatalf("workers=%d: summary returned alongside an error", workers)
		}
	}

	// Sequential Replicate reports the same failure.
	if _, err := Replicate(c, seeds); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprint(seeds[2])) {
		t.Fatalf("sequential error mismatch: %v", err)
	}
}

// No protocol's recovery line can keep more computation than the maximal
// consistent cut over its own checkpoints.
func TestProtocolLinesBoundedByMaximalCut(t *testing.T) {
	c := testConfig()
	c.RecordTrace = true
	res := mustRun(t, c)
	n := c.Mobile.NumHosts
	failed := mobile.HostID(2)
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		line, _ := pr.Slot().RecoveryLine(n, failed, nil)
		optimal := recovery.MaximalCut(pr.Trace, pr.Store, n, failed)
		if !optimal.Dominates(line) {
			t.Fatalf("%s: line %v exceeds maximal cut %v", pr.Name, line, optimal)
		}
	}
}

// The protocol comparison must be robust to an unreliable wireless
// channel: with losses and retransmissions enabled the ordering
// TP >= BCS >= QBC still holds and the recovery lines stay consistent.
func TestLossyChannelRobustness(t *testing.T) {
	c := testConfig()
	c.Mobile.LossProbability = 0.2
	c.Mobile.RetransmitTimeout = 0.05
	c.RecordTrace = true
	res := mustRun(t, c)
	if res.Network.Retransmissions == 0 {
		t.Fatal("loss model inactive")
	}
	tp, bcs, qbc := res.Protocol(TP).Ntot, res.Protocol(BCS).Ntot, res.Protocol(QBC).Ntot
	if !(tp >= bcs && bcs >= qbc) {
		t.Fatalf("ordering violated under loss: %d/%d/%d", tp, bcs, qbc)
	}
	pr := res.Protocol(QBC)
	cut := recovery.LatestIndexCut(pr.Store, c.Mobile.NumHosts, 0)
	if n := recovery.Orphans(pr.Trace, cut); n != 0 {
		t.Fatalf("index line has %d orphans under loss", n)
	}
}

// With periodic GC the live checkpoint population stays bounded while
// the total taken grows with the run length, and the recovery lines
// surviving GC stay consistent.
func TestPeriodicGCBoundsStorage(t *testing.T) {
	c := testConfig()
	c.Horizon = 8000
	c.GCInterval = 200
	c.RecordTrace = true
	res := mustRun(t, c)
	for _, name := range []ProtocolName{BCS, QBC} {
		pr := res.Protocol(name)
		if pr.GCReclaimedRecords == 0 {
			t.Fatalf("%s: GC never reclaimed anything", name)
		}
		if pr.PeakLiveRecords == 0 {
			t.Fatalf("%s: peak not sampled", name)
		}
		total := int(pr.Ntot + pr.Initial)
		if pr.PeakLiveRecords >= total {
			t.Fatalf("%s: peak %d not below total %d", name, pr.PeakLiveRecords, total)
		}
		// The failed host can still recover from what survived.
		cut := recovery.LatestIndexCut(pr.Store, c.Mobile.NumHosts, 0)
		if cut[0] == recovery.End {
			t.Fatalf("%s: failed host has no live checkpoint after GC", name)
		}
		if n := recovery.Orphans(pr.Trace, cut); n != 0 {
			t.Fatalf("%s: post-GC recovery line has %d orphans", name, n)
		}
	}
	// TP is skipped by GC: nothing reclaimed there.
	if res.Protocol(TP).GCReclaimedRecords != 0 {
		t.Fatal("GC must not touch TP's store")
	}
}

// TP's recorded dependency vectors must be internally consistent: the
// own entry equals the checkpoint's interval index, entries never point
// into the future, and vectors grow monotonically along each chain.
func TestTPMetaVectorsConsistent(t *testing.T) {
	c := testConfig()
	c.Horizon = 3000
	res := mustRun(t, c)
	pr := res.Protocol(TP)
	tp := pr.Instance.(*protocol.TP)
	n := c.Mobile.NumHosts
	for h := 0; h < n; h++ {
		var prev []int
		for _, rec := range pr.Store.Chain(mobile.HostID(h)) {
			meta, ok := tp.Meta(rec)
			if !ok {
				t.Fatalf("host %d ordinal %d has no meta", h, rec.Ordinal)
			}
			v := meta.Ckpt
			if v[h] != int(rec.Index) {
				t.Fatalf("host %d: own entry %d != index %d", h, v[h], rec.Index)
			}
			for j := 0; j < n; j++ {
				// No dependency can exceed the target's checkpoint count
				// at the end of the run (a loose but structural bound).
				if v[j] >= len(pr.Store.Chain(mobile.HostID(j)))+1 {
					t.Fatalf("host %d depends on nonexistent interval %d of %d", h, v[j], j)
				}
				if prev != nil && v[j] < prev[j] {
					t.Fatalf("host %d: vector went backwards at ordinal %d", h, rec.Ordinal)
				}
			}
			prev = v
		}
	}
}

// Every TP checkpoint (not just the last) seeds a recovery that
// converges with bounded propagation and zero remaining orphans.
func TestTPEveryCheckpointRecoverable(t *testing.T) {
	c := testConfig()
	c.Horizon = 1500
	c.RecordTrace = true
	c.Protocols = []ProtocolName{TP}
	res := mustRun(t, c)
	pr := res.Protocols[0]
	n := c.Mobile.NumHosts
	tp := pr.Instance.(*protocol.TP)
	for h := 0; h < n; h++ {
		for _, rec := range pr.Store.Chain(mobile.HostID(h)) {
			// Build the vector line through this specific checkpoint.
			cut := recovery.NewCut(n)
			cut[h] = int(rec.Ordinal)
			if meta, ok := tp.Meta(rec); ok {
				for j := 0; j < n; j++ {
					if j == h {
						continue
					}
					if r := pr.Store.FirstWithIndexAtLeast(mobile.HostID(j), meta.Ckpt[j]+1); r != nil {
						cut[j] = int(r.Ordinal)
					}
				}
			}
			final, _ := recovery.Propagate(pr.Trace, cut)
			if recovery.Orphans(pr.Trace, final) != 0 {
				t.Fatalf("host %d ordinal %d: propagation left orphans", h, rec.Ordinal)
			}
			// The failed host's restore point must survive propagation:
			// its own checkpoint is never rolled back further by others'
			// orphans... unless a message it received after the checkpoint
			// forces it; either way the cut stays within its chain.
			if final[h] != recovery.End && final[h] > int(rec.Ordinal) {
				t.Fatalf("host %d: restore point moved forward", h)
			}
		}
	}
}

// Dynamic membership (E16): hosts join mid-run; the index protocols
// admit them for free while TP pays O(n) control messages per join, and
// every consistency property keeps holding over the grown computation.
func TestDynamicJoins(t *testing.T) {
	c := testConfig()
	c.Horizon = 4000
	c.Protocols = []ProtocolName{TP, BCS, QBC}
	c.JoinTimes = []des.Time{1000, 2000, 3000}
	c.RecordTrace = true
	res := mustRun(t, c)
	if res.FinalHosts != c.Mobile.NumHosts+3 {
		t.Fatalf("final hosts = %d", res.FinalHosts)
	}
	// TP pays one notification per existing host per join: 10+11+12.
	if got := res.Protocol(TP).JoinCtrlMessages; got != 33 {
		t.Fatalf("TP join cost = %d, want 33", got)
	}
	for _, name := range []ProtocolName{BCS, QBC} {
		if got := res.Protocol(name).JoinCtrlMessages; got != 0 {
			t.Fatalf("%s join cost = %d, want 0", name, got)
		}
	}
	// The newcomers took checkpoints and participated.
	for _, pr := range res.Protocols {
		for h := c.Mobile.NumHosts; h < res.FinalHosts; h++ {
			if len(pr.Store.Chain(mobile.HostID(h))) == 0 {
				t.Fatalf("%s: joined host %d has no checkpoints", pr.Name, h)
			}
		}
		if pr.Initial != int64(res.FinalHosts) {
			t.Fatalf("%s: initial checkpoints = %d, want %d", pr.Name, pr.Initial, res.FinalHosts)
		}
	}
	// Index recovery lines over the grown membership stay consistent.
	for _, name := range []ProtocolName{BCS, QBC} {
		pr := res.Protocol(name)
		maxIdx := 0
		for h := 0; h < res.FinalHosts; h++ {
			for _, rec := range pr.Store.Chain(mobile.HostID(h)) {
				if int(rec.Index) > maxIdx {
					maxIdx = int(rec.Index)
				}
			}
		}
		for x := 0; x <= maxIdx; x++ {
			cut := recovery.IndexCut(pr.Store, res.FinalHosts, x)
			if n := recovery.Orphans(pr.Trace, cut); n != 0 {
				t.Fatalf("%s: post-join index line %d has %d orphans", name, x, n)
			}
		}
	}
	// TP's vector recovery also still converges (ragged merges worked).
	pr := res.Protocol(TP)
	cut, _ := pr.Slot().RecoveryLine(res.FinalHosts, 0, nil)
	if recovery.Orphans(pr.Trace, cut) != 0 {
		t.Fatal("TP recovery left orphans after joins")
	}
}

// Joined hosts must land on seed-dependent stations: the old placement
// rule (NumHosts() mod NumMSS) parked the k-th joiner on the same
// station for every seed, so E16's multi-seed averages all measured one
// fixed placement. Placement now draws from a dedicated stream — it
// varies with the seed, is reproducible under it, and never perturbs
// the workload (TestDynamicJoinsDeterministic covers the latter).
func TestJoinPlacementSeedDependent(t *testing.T) {
	placements := func(seed uint64) []string {
		c := testConfig()
		c.Seed = seed
		c.Horizon = 3000
		c.JoinTimes = []des.Time{200, 400, 600, 800, 1000, 1200, 1400, 1600}
		tl := obs.NewTimeline()
		c.Timeline = tl
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		var at []string
		for _, ev := range tl.Events() {
			if ev.Phase == "i" && ev.Name == "join" {
				s := ev.Args["at"]
				mss, err := strconv.Atoi(s)
				if err != nil || mss < 0 || mss >= c.Mobile.NumMSS {
					t.Fatalf("join placed at invalid station %q", s)
				}
				at = append(at, s)
			}
		}
		if len(at) != len(c.JoinTimes) {
			t.Fatalf("saw %d join instants, want %d", len(at), len(c.JoinTimes))
		}
		return at
	}
	a1, a2, b := placements(1), placements(1), placements(2)
	if !slices.Equal(a1, a2) {
		t.Fatalf("same seed, different placements: %v vs %v", a1, a2)
	}
	if slices.Equal(a1, b) {
		t.Fatalf("seeds 1 and 2 placed all %d joiners identically (%v): placement ignores the seed", len(a1), a1)
	}
}

func TestDynamicJoinsDeterministic(t *testing.T) {
	c := testConfig()
	c.Horizon = 3000
	c.JoinTimes = []des.Time{500, 1500}
	a := mustRun(t, c)
	b := mustRun(t, c)
	for i := range a.Protocols {
		if a.Protocols[i].Ntot != b.Protocols[i].Ntot {
			t.Fatalf("%s diverged across identical runs with joins", a.Protocols[i].Name)
		}
	}
}

func TestExportJSON(t *testing.T) {
	c := testConfig()
	c.Horizon = 500
	res := mustRun(t, c)
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	protos, ok := decoded["protocols"].([]any)
	if !ok || len(protos) != len(c.Protocols) {
		t.Fatalf("protocols field wrong: %v", decoded["protocols"])
	}
	first := protos[0].(map[string]any)
	if first["name"] != "TP" || first["ntot"].(float64) <= 0 {
		t.Fatalf("first protocol: %v", first)
	}
	if decoded["final_hosts"].(float64) != float64(c.Mobile.NumHosts) {
		t.Fatalf("final_hosts: %v", decoded["final_hosts"])
	}
}

// Every run parameter the JSON export carries must survive a round
// trip; regression for the silently-dropped EventsFired, SnapshotPeriod,
// GCInterval and JoinTimes fields.
func TestExportJSONRoundTrip(t *testing.T) {
	c := testConfig()
	c.Horizon = 1500
	c.SnapshotPeriod = 75
	c.GCInterval = 300
	c.JoinTimes = []des.Time{400, 900}
	res := mustRun(t, c)
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got exportedResult
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.EventsFired != res.EventsFired || got.EventsFired == 0 {
		t.Fatalf("events_fired = %d, want %d", got.EventsFired, res.EventsFired)
	}
	if got.SnapshotPeriod != 75 || got.GCInterval != 300 {
		t.Fatalf("periods = %v/%v, want 75/300", got.SnapshotPeriod, got.GCInterval)
	}
	if len(got.JoinTimes) != 2 || got.JoinTimes[0] != 400 || got.JoinTimes[1] != 900 {
		t.Fatalf("join_times = %v", got.JoinTimes)
	}
	if got.FinalHosts != res.FinalHosts || got.Seed != c.Seed {
		t.Fatalf("identity fields drifted: %+v", got)
	}
	// Without joins the field is omitted, not an empty array.
	res2 := mustRun(t, testConfig())
	buf.Reset()
	if err := res2.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["join_times"]; present {
		t.Fatal("join_times must be omitted when no joins are configured")
	}
}

func TestJoinAndGCValidation(t *testing.T) {
	c := testConfig()
	c.JoinTimes = []des.Time{-1}
	if c.Validate() == nil {
		t.Fatal("negative join time must fail")
	}
	c = testConfig()
	c.JoinTimes = []des.Time{c.Horizon + 1}
	if c.Validate() == nil {
		t.Fatal("join after horizon must fail")
	}
	c = testConfig()
	c.GCInterval = -1
	if c.Validate() == nil {
		t.Fatal("negative GC interval must fail")
	}
}
