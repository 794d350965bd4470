package live

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
)

func bcsFactory(n int, ck protocol.Checkpointer, store *storage.Store, _ func(mobile.HostID) mobile.MSSID) protocol.Protocol {
	return protocol.NewBCS(n, ck)
}

func qbcFactory(n int, ck protocol.Checkpointer, store *storage.Store, _ func(mobile.HostID) mobile.MSSID) protocol.Protocol {
	return protocol.NewQBC(n, ck, store)
}

// tpFactory wires TP to the cluster's live location directory: the
// protocol's piggybacked location vectors track hand-offs instead of
// guessing a static placement (which went stale after the first move).
func tpFactory(n int, ck protocol.Checkpointer, store *storage.Store, mssOf func(mobile.HostID) mobile.MSSID) protocol.Protocol {
	return protocol.NewTP(n, ck, mssOf)
}

func runCluster(t testing.TB, cfg Config, mk NewProtocol) *Cluster {
	t.Helper()
	c := recordedCluster(t, cfg, mk)
	c.Run()
	return c
}

// recordedCluster builds a cluster that records its run. If the test
// fails, the run's bundle — its schedule and decision log, what
// examples/live -record writes — is left in the temporary directory, and
// the failure names the file and the mhsim command that re-executes the
// run.
func recordedCluster(t testing.TB, cfg Config, mk NewProtocol) *Cluster {
	t.Helper()
	cfg.Record = true
	c, err := NewCluster(cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.CreateTemp("", "live-"+strings.ReplaceAll(t.Name(), "/", "-")+"-*.bundle.json")
		if err == nil {
			err = (&replaycmp.Bundle{Schedule: c.Schedule(), Live: c.Decisions()}).Export(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Logf("the run's bundle was not written: %v", err)
			return
		}
		t.Logf("the failing run's bundle: mhsim -replay-schedule %s -log %s", f.Name(), cfg.LogMode)
	})
	return c
}

// scriptedCluster builds a cluster and starts its protocol side without
// its goroutines: the test drives the cluster's events itself, from one
// goroutine, so what they do does not depend on the scheduler.
func scriptedCluster(t *testing.T, cfg Config, mk NewProtocol) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.side.Start()
	c.mu.Unlock()
	return c
}

// sendOne has host from send one packet, routes it, has its receiver
// take it, and returns the receiver.
func sendOne(t *testing.T, c *Cluster, from mobile.HostID, src *rng.Source) mobile.HostID {
	t.Helper()
	c.send(from, src)
	pkt, ok := c.wired[c.side.Station(from)].tryGet()
	if !ok {
		t.Fatal("the send put nothing on its station's inbox")
	}
	c.deliver(pkt.to, pkt, c.seen[pkt.to])
	return pkt.to
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Hosts = 1 },
		func(c *Config) { c.Stations = 1 },
		func(c *Config) { c.OpsPerHost = 0 },
		func(c *Config) { c.PSend = 0.9; c.PSwitch = 0.9 },
		func(c *Config) { c.DupProbability = 2 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d should fail", i)
		}
		if _, err := NewCluster(c, bcsFactory); err == nil {
			t.Fatalf("NewCluster with mutation %d should fail", i)
		}
	}
}

// Building a cluster costs what its hosts and stations cost, whatever
// the run length: links hold what is queued, not what the whole run
// could ever queue. (Channels pre-sized for the worst case made this
// ~40x at these two sizes.) TotalAlloc is process-wide, so each size
// takes the least of a few repetitions: anything the runtime or another
// goroutine allocates meanwhile only adds.
func TestNewClusterAllocsIndependentOfOps(t *testing.T) {
	newClusterBytes := func(ops int) float64 {
		cfg := DefaultConfig()
		cfg.OpsPerHost = ops
		cfg.Joins = 2
		cfg.LogMode = mlog.Pessimistic
		least := math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := NewCluster(cfg, qbcFactory); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	short, long := newClusterBytes(500), newClusterBytes(20_000)
	t.Logf("NewCluster: %.0f B at OpsPerHost=500, %.0f B at 20000, ratio %.2f", short, long, long/short)
	if long > 1.1*short {
		t.Fatalf("NewCluster allocated %.0f B at OpsPerHost=20000 vs %.0f B at 500 (limit 1.1x): set-up grows with the run length", long, short)
	}
}

func TestMessageAccounting(t *testing.T) {
	c := runCluster(t, DefaultConfig(), bcsFactory)
	got := c.Counters()
	if got.Sent == 0 {
		t.Fatal("no messages sent")
	}
	if got.Delivered > got.Sent {
		t.Fatalf("delivered %d > sent %d (exactly-once broken)", got.Delivered, got.Sent)
	}
	// Every sent message is delivered or still buffered; duplicates are
	// extra copies on top.
	if got.Delivered+got.Undrained < got.Sent {
		t.Fatalf("lost messages: sent=%d delivered=%d undrained=%d", got.Sent, got.Delivered, got.Undrained)
	}
	if int64(c.Trace().Len()) != got.Delivered {
		t.Fatalf("trace has %d events, delivered %d", c.Trace().Len(), got.Delivered)
	}
	if inFlight := len(c.Trace().History().InFlight()); int64(inFlight) != got.Sent-got.Delivered {
		t.Fatalf("in-flight mismatch: %d vs %d", inFlight, got.Sent-got.Delivered)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProbability = 0.5
	c := runCluster(t, cfg, bcsFactory)
	if c.Counters().Duplicates == 0 {
		t.Fatal("transport injected no duplicates at p=0.5")
	}
	// With duplication off, none must be counted.
	cfg.DupProbability = 0
	c = runCluster(t, cfg, bcsFactory)
	if c.Counters().Duplicates != 0 {
		t.Fatal("duplicates counted with duplication disabled")
	}
}

func TestMobilityHappens(t *testing.T) {
	c := runCluster(t, DefaultConfig(), bcsFactory)
	got := c.Counters()
	if got.Switches == 0 || got.Disconnect == 0 {
		t.Fatalf("no mobility: %+v", got)
	}
	_, basic, _ := c.Store().CountByKind(-1)
	if int64(basic) < got.Switches+got.Disconnect {
		t.Fatalf("basic checkpoints %d < mobility events %d",
			basic, got.Switches+got.Disconnect)
	}
}

// The central live-system property: the index-based recovery lines built
// from a real concurrent execution are consistent — under duplication,
// real interleavings and mobility.
func TestLiveIndexLinesConsistent(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   NewProtocol
	}{
		{"BCS", bcsFactory},
		{"QBC", qbcFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg := DefaultConfig()
				cfg.Seed = seed
				c := runCluster(t, cfg, tc.mk)
				maxIdx := 0
				for h := 0; h < cfg.Hosts; h++ {
					for _, rec := range c.Store().Chain(mobile.HostID(h)) {
						if int(rec.Index) > maxIdx {
							maxIdx = int(rec.Index)
						}
					}
				}
				for x := 0; x <= maxIdx; x++ {
					cut := recovery.IndexCut(c.Store(), cfg.Hosts, x)
					if n := recovery.Orphans(c.Trace(), cut); n != 0 {
						t.Fatalf("seed %d: index line %d has %d orphans", seed, x, n)
					}
				}
			}
		})
	}
}

// TP's recovery must converge with bounded propagation on live traces.
func TestLiveTPRecoveryConverges(t *testing.T) {
	cfg := DefaultConfig()
	c := runCluster(t, cfg, tpFactory)
	seed := recovery.FailureCut(c.Store(), cfg.Hosts, 0)
	cut, _ := recovery.Propagate(c.Trace(), seed)
	if recovery.Orphans(c.Trace(), cut) != 0 {
		t.Fatal("propagation left orphans")
	}
	for h, x := range cut {
		if x == recovery.End {
			continue
		}
		if x < 0 || x >= len(c.Store().Chain(mobile.HostID(h))) {
			t.Fatalf("host %d restored nonexistent ordinal %d", h, x)
		}
	}
}

// QBC invariants must hold at the end of a concurrent run.
func TestLiveQBCInvariants(t *testing.T) {
	cfg := DefaultConfig()
	c := runCluster(t, cfg, qbcFactory)
	q := c.Protocol().(*protocol.QBC)
	for h := mobile.HostID(0); int(h) < cfg.Hosts; h++ {
		if q.ReceiveNumber(h) > q.SequenceNumber(h) {
			t.Fatalf("host %d: rn %d > sn %d", h, q.ReceiveNumber(h), q.SequenceNumber(h))
		}
		// Live chains have strictly increasing indices.
		last := -1
		for _, rec := range c.Store().Chain(h) {
			if rec.Superseded {
				continue
			}
			if int(rec.Index) <= last {
				t.Fatalf("host %d: live chain indices not increasing", h)
			}
			last = int(rec.Index)
		}
	}
}

func TestProtocolsSeeEveryHost(t *testing.T) {
	cfg := DefaultConfig()
	c := runCluster(t, cfg, bcsFactory)
	for h := 0; h < cfg.Hosts; h++ {
		if len(c.Store().Chain(mobile.HostID(h))) == 0 {
			t.Fatalf("host %d has no checkpoints", h)
		}
	}
}

// The data plane must reconstruct every checkpoint byte-for-byte on the
// stations, across cell switches (wired base fetches) and under real
// concurrency, and every frame must decode.
func TestLiveDataPlane(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		c := runCluster(t, cfg, qbcFactory)
		got := c.Counters()
		if got.DecodeErrors != 0 {
			t.Fatalf("seed %d: %d frames failed to decode", seed, got.DecodeErrors)
		}
		if got.StateErrors != 0 {
			t.Fatalf("seed %d: %d checkpoint reconstructions failed", seed, got.StateErrors)
		}
		if got.FrameBytes == 0 || got.StateBytes == 0 {
			t.Fatalf("seed %d: no data-plane volume recorded: %+v", seed, got)
		}
		if got.WiredStateBytes == 0 {
			t.Fatalf("seed %d: hosts switched cells %d times but no base was fetched", seed, got.Switches)
		}
		// The hosts apply concurrently, some at one station: the cluster
		// adds what each Apply fetched, which sums to the stations' totals.
		var wired int64
		for s := range cfg.Stations {
			wired += c.group.Station(s).WiredBytes()
		}
		if got.WiredStateBytes != wired {
			t.Fatalf("seed %d: cluster counted %d wired bytes, the stations fetched %d", seed, got.WiredStateBytes, wired)
		}
	}
}

// A host's images are built on its own goroutine after its event, which
// is race-free only while its checkpoints come from its own events: a
// protocol that checkpoints host 1 inside a send of host 0 is a bug the
// protocol side reports by name.
func TestCheckpointOfAnotherHostPanics(t *testing.T) {
	c := scriptedCluster(t, DefaultConfig(), func(n int, k protocol.Checkpointer, store *storage.Store, mssOf func(mobile.HostID) mobile.MSSID) protocol.Protocol {
		return &checkpointsHostOne{bcsFactory(n, k, store, mssOf), k}
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "checkpoint of host 1") || !strings.Contains(msg, "event of host 0") {
			t.Fatalf("checkpoint of host 1 in host 0's event: panic %q, want one naming both hosts", msg)
		}
	}()
	c.send(0, rng.NewStream(1, 0))
}

// checkpointsHostOne is BCS with every send checkpointing host 1.
type checkpointsHostOne struct {
	protocol.Protocol
	ck protocol.Checkpointer
}

func (p *checkpointsHostOne) OnSend(from, to mobile.HostID) any {
	p.ck(1, 1, storage.Basic)
	return p.Protocol.OnSend(from, to)
}

// TP's O(n) vectors must also survive the wire.
func TestLiveTPFramesDecode(t *testing.T) {
	cfg := DefaultConfig()
	c := runCluster(t, cfg, tpFactory)
	got := c.Counters()
	if got.DecodeErrors != 0 || got.StateErrors != 0 {
		t.Fatalf("errors: %+v", got)
	}
	// A TP frame carries 2 vectors of cfg.Hosts entries: minimum frame
	// volume per message is well above the index protocols'.
	if got.FrameBytes < got.Sent*int64(12+3+16*cfg.Hosts) {
		t.Fatalf("frame volume %d too small for vector piggybacks", got.FrameBytes)
	}
}

// End-to-end recovery: after a crash, rolled-back hosts' memory images
// are reinstalled from station stable storage, checksum-verified, and
// the incremental chains continue gap-free.
func TestLiveRecoverExecutesRollback(t *testing.T) {
	cfg := DefaultConfig()
	c := runCluster(t, cfg, qbcFactory)
	// Every image on stable storage is intact before we start.
	checked, err := c.VerifyImages()
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no images to verify")
	}

	rep, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if recovery.Orphans(c.Trace(), rep.Cut) != 0 {
		t.Fatal("executed cut not consistent")
	}
	if len(rep.Restored) == 0 || rep.BytesRestored == 0 {
		t.Fatalf("nothing restored: %+v", rep)
	}
	// Each restored host's live state now equals the image of the
	// checkpoint it rolled back to.
	for h, ord := range rep.Restored {
		im, _, err := c.group.FindImage(int(h), ord)
		if err != nil {
			t.Fatal(err)
		}
		if c.stateOf(h).Checksum() != im.Checksum {
			t.Fatalf("host %d state differs from restored image", h)
		}
	}
	// Recovery of an unknown host fails cleanly.
	if _, err := c.Recover(mobile.HostID(99)); err == nil {
		t.Fatal("unknown host must fail")
	}
}

// Dynamic membership under real concurrency: hosts join while traffic
// flows; consistency and data-plane integrity must survive.
func TestLiveDynamicJoins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Joins = 4
	c := runCluster(t, cfg, qbcFactory)
	got := c.Counters()
	if got.Joined != int64(cfg.Joins) {
		t.Fatalf("joined = %d, want %d", got.Joined, cfg.Joins)
	}
	final := cfg.Hosts + cfg.Joins
	// Every joiner checkpointed and its images verify.
	for h := cfg.Hosts; h < final; h++ {
		if len(c.Store().Chain(mobile.HostID(h))) == 0 {
			t.Fatalf("joined host %d has no checkpoints", h)
		}
	}
	if _, err := c.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if got.DecodeErrors != 0 || got.StateErrors != 0 {
		t.Fatalf("errors after joins: %+v", got)
	}
	// The index recovery lines over the grown membership are consistent.
	maxIdx := 0
	for h := 0; h < final; h++ {
		for _, rec := range c.Store().Chain(mobile.HostID(h)) {
			if int(rec.Index) > maxIdx {
				maxIdx = int(rec.Index)
			}
		}
	}
	for x := 0; x <= maxIdx; x++ {
		cut := recovery.IndexCut(c.Store(), final, x)
		if n := recovery.Orphans(c.Trace(), cut); n != 0 {
			t.Fatalf("post-join index line %d has %d orphans", x, n)
		}
	}
	// Recovery still executes end to end on the grown cluster.
	rep, err := c.Recover(mobile.HostID(final - 1))
	if err != nil {
		t.Fatal(err)
	}
	if recovery.Orphans(c.Trace(), rep.Cut) != 0 {
		t.Fatal("recovery cut inconsistent after joins")
	}
}
