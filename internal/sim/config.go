package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/protoside"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// ProtocolName selects a protocol implementation.
type ProtocolName string

// The protocols of the study (§4) and the baselines of §2.
const (
	TP  ProtocolName = "TP"  // Acharya–Badrinath two-phase
	BCS ProtocolName = "BCS" // Briatico–Ciuffoletti–Simoncini
	QBC ProtocolName = "QBC" // Quaglia–Baldoni–Ciciani
	UNC ProtocolName = "UNC" // uncoordinated baseline
	CL  ProtocolName = "CL"  // Chandy–Lamport-style coordinated baseline
	PS  ProtocolName = "PS"  // Prakash–Singhal-style coordinated baseline
	MS  ProtocolName = "MS"  // timer-driven index protocol (extension)
)

// AllProtocols lists every selectable protocol: the names of the
// registry in internal/protocol (TestProtocolRegistry keeps them equal).
func AllProtocols() []ProtocolName {
	return []ProtocolName{TP, BCS, QBC, UNC, CL, PS, MS}
}

// PaperProtocols lists the three protocols the paper's figures compare.
func PaperProtocols() []ProtocolName { return []ProtocolName{TP, BCS, QBC} }

// Config describes one simulation run.
type Config struct {
	Mobile   mobile.Config
	Workload workload.Config
	Cost     storage.CostModel

	// Horizon is the simulated run length (the paper's runs are 100,000
	// time units).
	Horizon des.Time
	// Seed determines the entire trace.
	Seed uint64
	// Protocols are evaluated simultaneously over the same trace.
	Protocols []ProtocolName
	// SnapshotPeriod drives the clock-driven protocols — the registry's
	// Coordinated set: marker rounds for CL and PS, timer ticks for MS —
	// and must be positive when one is selected; ignored for
	// communication-induced protocols.
	SnapshotPeriod des.Time
	// CheckpointLatency models a non-negligible time for taking a
	// checkpoint: after each checkpoint the host's next operation is
	// delayed by this much. Because the delay perturbs the trace, it is
	// only allowed when exactly one protocol is selected (otherwise the
	// single-trace comparison would charge every protocol for the
	// union of all checkpoints). The paper (§5.1) reports that a
	// non-negligible checkpoint time has no remarkable impact on N_tot;
	// TestCheckpointLatencyClaim verifies that.
	CheckpointLatency des.Time

	// RecordTrace keeps the run's message and mobility history for
	// recovery analysis: one history per run, not per protocol, plus two
	// checkpoint counts per message for each protocol
	// (ProtocolResult.Trace is that protocol's view of it). It costs
	// memory proportional to the number of messages; leave false for
	// N_tot sweeps.
	RecordTrace bool

	// JoinTimes schedules dynamic membership (E16): at each listed time a
	// new mobile host joins the computation at a station drawn from a
	// dedicated seed-derived stream and immediately starts communicating
	// and roaming. Protocols admit
	// it through their OnJoin; the per-protocol join cost is
	// reported in ProtocolResult.JoinCtrlMessages.
	JoinTimes []des.Time

	// GCInterval, when positive, runs stable-index garbage collection on
	// every index-based protocol's store at that period (E11): checkpoints
	// no future recovery line can use are reclaimed, bounding per-MSS
	// stable storage over arbitrarily long runs.
	GCInterval des.Time

	// MessageLog enables MSS-resident message logging (internal/mlog,
	// experiment E18): every delivered application message is appended to
	// a per-host log on the receiver's current station, transferred on
	// hand-off and flushed at disconnection. mlog.Off disables it.
	// Logging is purely observational — it never perturbs the trace — so
	// it composes with the shared-trace evaluation; each protocol slot
	// keeps its own log (receiver positions depend on the protocol's
	// checkpoints). An index-based slot prunes the switching host's log at
	// each hand-off and every host's at each GCInterval tick (Slot.Frontier).
	// A log refers to the rows of the run's history, so a logged run keeps
	// that history even without RecordTrace (about 79 B per message);
	// ProtocolResult.Trace still comes only with RecordTrace.
	MessageLog mlog.Mode

	// Metrics, when non-nil, receives the run's observability instruments
	// (internal/obs): DES event/queue metrics, per-protocol checkpoint
	// counters broken down by cause, control-message and GC tallies,
	// message-log activity and network/workload volumes. With Metrics nil
	// the engine's hot paths skip instrumentation entirely
	// (bench's obs.metrics_timeline_overhead_ratio prices the enabled path).
	Metrics *obs.Registry

	// Timeline, when non-nil, receives the run drawn after it ends
	// (protoside.Side.RenderTimeline): per-host instants and spans —
	// checkpoints (with kind and cause), hand-offs, disconnection
	// periods, message sends/deliveries and log flushes — plus causal
	// flow events chaining each send to its delivery and the forced
	// checkpoints that delivery induces, exportable as Chrome trace-event
	// JSON (obs.Timeline.Export). It makes the run keep a history and a
	// decision log per protocol, and nothing is drawn while the run runs.
	// The drawing is deterministic given the seed *and
	// engine-independent*: two same-seed runs export byte-identical
	// timelines on any Engine at any lane count
	// (TestTimelineEngineEquivalence), since each track follows its
	// host's history rows, which every engine applies in the host's
	// order, and a message's flow id is its sender and the sender's send
	// ordinal.
	Timeline *obs.Timeline

	// Probes, when true, attaches the engine-internals probes: event/
	// message pool hit rates, pending-event-set structure (calendar
	// buckets examined, in-order insertions, year starts), and — on the
	// parallel engine — per-lane window and mailbox counters. The counters are
	// plain single-writer cells read after the run: Result.Probes carries
	// the report, and with Metrics set they also surface as sim_probe_*
	// instruments (scrape only at quiescence). Probes never perturb the
	// trace: figures are bit-identical with probes on and off.
	Probes bool

	// Progress, when non-nil, is invoked every ProgressEvery simulated
	// time units with the current virtual time and the events fired so
	// far (CLI progress reporting for long sweeps). ProgressEvery
	// defaults to Horizon/10. The callback must not touch the engine. It
	// runs on the world goroutine while the protocol side may still be
	// applying earlier records on its own, so it must not read protocol
	// state either: no protocol, store or trace, and no Metrics family the
	// protocol side registers. An
	// intermediate beat may count a host's in-line operations up to its
	// next communication early (they are counted when the operation before
	// them fires); the beat at the horizon and Result.EventsFired are
	// exact.
	Progress      func(now des.Time, fired uint64)
	ProgressEvery des.Time

	// Checks enables the runtime invariant checker (internal/check): every
	// protocol event is verified against a shadow model of the protocol's
	// rules, the engine's counters are reconciled against the stable-storage
	// chains at the horizon, and (with RecordTrace) every index-based
	// recovery line is checked for orphan messages. Violations make Run
	// return a structured error naming protocol, host and time. The
	// overhead is a constant factor on protocol events; leave false for
	// large performance sweeps.
	Checks bool

	// Queue selects the engine's event-queue implementation. Every run
	// uses the zero value, the calendar queue (DESIGN.md §7); des.QueueHeap
	// selects the reference heap, which realizes the same (time, seq)
	// total order — TestQueueAblationIdentical holds the engine to that.
	// The field stays only because bench/ sets it and reads it back; it
	// goes when the benchmark stops doing so (ROADMAP item 1).
	Queue des.QueueKind

	// Engine selects the execution engine (DESIGN.md §8): the zero value
	// runs the ordinary sequential des.Simulator loop;
	// pdes.ModeConservative shards the hosts over Lanes logical processes
	// driven by internal/pdes. The parallel engine realizes the same
	// (time, key) total order as the sequential engine, so results are
	// bit-identical at every lane count — TestEngineEquivalence holds the
	// engine to that. Parallel execution trades away the observational
	// extras: it rejects Checks, RecordTrace, MessageLog, Progress,
	// CheckpointLatency and the contention/loss channel models (all
	// either perturb the trace from a global vantage point or read the
	// run's total event order, where the coordinator applies a window's
	// protocol records lane by lane), and it requires positive wireless
	// and wired latencies — the cross-lane lookahead is derived from
	// them, and a zero-latency network has no safe parallel window.
	Engine pdes.Mode
	// Lanes is the logical-process count for the parallel engine; 0
	// selects GOMAXPROCS. The sequential engine has no lanes, so with it
	// Lanes must be 0.
	Lanes int

	// Schedule, when non-nil, switches Run into differential-replay mode
	// (E24): instead of generating a synthetic workload, the engine
	// re-executes the exact event history a live cluster
	// (live.Config.Record) or an engine run recorded — every event, in the
	// recorded total order at the recorded logical ticks — and lets the
	// protocol re-derive its decisions. The Result carries a replaycmp.Log
	// to hold against the live one. Replay mode uses the schedule's own
	// topology and protocol; Protocols must be empty or name exactly that
	// protocol. Checks, MessageLog, Metrics and Timeline compose: the
	// replay drives the same protocol side. Every other field must be left
	// zero (Validate names the first that is not): there is nothing for it
	// to drive.
	Schedule *trace.Schedule
}

// DefaultConfig returns the paper's §5.1 environment at T_switch = 1000,
// P_switch = 1.0, H = 0, comparing TP, BCS and QBC.
func DefaultConfig() Config {
	return Config{
		Mobile:         mobile.DefaultConfig(),
		Workload:       workload.DefaultConfig(),
		Cost:           storage.DefaultCostModel(),
		Horizon:        100000,
		Seed:           1,
		Protocols:      PaperProtocols(),
		SnapshotPeriod: 100,
	}
}

// Validate reports a descriptive error for bad configurations.
func (c Config) Validate() error {
	if err := c.validateFinite(); err != nil {
		return err
	}
	if c.Schedule != nil {
		return c.validateReplay()
	}
	if err := c.Mobile.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: Horizon = %v, need > 0", c.Horizon)
	}
	if len(c.Protocols) == 0 {
		return fmt.Errorf("sim: no protocols selected")
	}
	seen := map[ProtocolName]bool{}
	for _, p := range c.Protocols {
		if seen[p] {
			return fmt.Errorf("sim: protocol %s selected twice", p)
		}
		seen[p] = true
		ent, ok := protocol.Lookup(string(p))
		if !ok {
			return fmt.Errorf("sim: unknown protocol %q", p)
		}
		if ent.Coordinated && c.SnapshotPeriod <= 0 {
			return fmt.Errorf("sim: %s requires SnapshotPeriod > 0", p)
		}
	}
	if c.CheckpointLatency < 0 {
		return fmt.Errorf("sim: negative CheckpointLatency")
	}
	if c.CheckpointLatency > 0 && len(c.Protocols) != 1 {
		return fmt.Errorf("sim: CheckpointLatency requires exactly one protocol (it perturbs the trace)")
	}
	if c.GCInterval < 0 {
		return fmt.Errorf("sim: negative GCInterval")
	}
	if err := c.validateLog(); err != nil {
		return err
	}
	for _, at := range c.JoinTimes {
		if at <= 0 || at > c.Horizon {
			return fmt.Errorf("sim: join time %v outside (0, horizon]", at)
		}
	}
	if c.ProgressEvery < 0 {
		return fmt.Errorf("sim: negative ProgressEvery")
	}
	if c.Lanes != 0 && c.Engine == pdes.ModeSequential {
		return fmt.Errorf("sim: Lanes = %d requires a parallel Engine (the sequential engine has no lanes)", c.Lanes)
	}
	switch c.Engine {
	case pdes.ModeSequential:
	case pdes.ModeConservative:
		if err := c.validateParallel(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown Engine mode %d", c.Engine)
	}
	return nil
}

// validateFinite rejects NaN and infinite times. A NaN passes every range
// test ("Horizon <= 0" is false for it) and then no event time is ever
// past the horizon; an infinite horizon never ends either, and an
// infinite period schedules its first tick at +Inf.
func (c Config) validateFinite() error {
	finite := func(t des.Time) bool { return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0) }
	for _, f := range []struct {
		name string
		v    des.Time
	}{
		{"Horizon", c.Horizon}, {"SnapshotPeriod", c.SnapshotPeriod},
		{"CheckpointLatency", c.CheckpointLatency}, {"GCInterval", c.GCInterval},
		{"ProgressEvery", c.ProgressEvery},
	} {
		if !finite(f.v) {
			return fmt.Errorf("sim: %s = %v, need a finite number", f.name, f.v)
		}
	}
	for i, at := range c.JoinTimes {
		if !finite(at) {
			return fmt.Errorf("sim: JoinTimes[%d] = %v, need a finite number", i, at)
		}
	}
	return nil
}

// validateParallel rejects configurations the parallel engine cannot
// honor. The lookahead rule is load-bearing, not cosmetic: the lanes'
// entire progress window is the minimum cross-lane message delay, which
// this world derives from the network latencies at validation time — a
// zero latency would make the window empty and every event unsafe.
func (c Config) validateParallel() error {
	if c.Lanes < 0 {
		return fmt.Errorf("sim: Lanes = %d, need >= 0 (0 selects GOMAXPROCS)", c.Lanes)
	}
	if c.Mobile.WirelessLatency <= 0 {
		return fmt.Errorf("sim: engine %s requires Mobile.WirelessLatency > 0 (got %v): the cross-lane lookahead is the minimum uplink delay", c.Engine, c.Mobile.WirelessLatency)
	}
	if c.Mobile.WiredLatency <= 0 {
		return fmt.Errorf("sim: engine %s requires Mobile.WiredLatency > 0 (got %v): a zero-latency backbone collapses the safe window between stations", c.Engine, c.Mobile.WiredLatency)
	}
	if c.Mobile.Contention {
		return fmt.Errorf("sim: engine %s is incompatible with Mobile.Contention (per-cell channel queues are cross-lane shared state)", c.Engine)
	}
	if c.Mobile.LossProbability > 0 {
		return fmt.Errorf("sim: engine %s is incompatible with Mobile.LossProbability (the loss stream's draw order depends on global event order)", c.Engine)
	}
	if c.Checks {
		return fmt.Errorf("sim: engine %s is incompatible with Checks (the checker is held to the sequential event order, and the coordinator applies a window's records lane by lane)", c.Engine)
	}
	if c.RecordTrace {
		return fmt.Errorf("sim: engine %s is incompatible with RecordTrace (the history is the run's total event order, and the coordinator applies a window's records lane by lane)", c.Engine)
	}
	if c.MessageLog != mlog.Off {
		return fmt.Errorf("sim: engine %s is incompatible with MessageLog (per-station logs are cross-lane shared state)", c.Engine)
	}
	if c.Progress != nil {
		return fmt.Errorf("sim: engine %s is incompatible with Progress (no single clock to report mid-run)", c.Engine)
	}
	if c.CheckpointLatency > 0 {
		return fmt.Errorf("sim: engine %s is incompatible with CheckpointLatency (the charged delay perturbs lane-local schedules)", c.Engine)
	}
	return nil
}

// replayReads are the Config fields a replay reads. The schedule dictates
// the topology, the workload, the event order and the clock, so every
// other field is meaningless there and likely a mistake.
var replayReads = []string{"Schedule", "Protocols", "Checks", "MessageLog", "Metrics", "Timeline"}

// validateReplay rejects configurations replay mode cannot honor: a bad
// schedule, an unregistered protocol or one without the clock a marker,
// round or tick row needs, and any field a replay does not read, by name.
func (c Config) validateReplay() error {
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	e, ok := protocol.Lookup(c.Schedule.Protocol)
	if !ok {
		return fmt.Errorf("sim: schedule records protocol %q, which no registry entry names", c.Schedule.Protocol)
	}
	// An instance of no hosts shows by its method set which clocks drive
	// the protocol: marker rounds and their markers, or timer ticks.
	p := e.New(0, nil, nil, nil)
	_, rounds := p.(protocol.Initiator)
	_, ticks := p.(protocol.Periodic)
	for i, ev := range c.Schedule.Events {
		if k, _ := trace.ParseKind(ev.Kind); k.Clocked() && !(k == trace.Tick && ticks || k != trace.Tick && rounds) {
			return fmt.Errorf("sim: schedule event %d is a %s, and no clock of protocol %s drives one", i, ev.Kind, e.Name)
		}
	}
	// The cap the sweep applies to TP: a replay sizes TP's dense current
	// state — one 32-bit CKPT entry per host per host — by the final host
	// count (Hosts too, in case the joins overflowed it).
	n := c.Schedule.FinalHosts()
	if c.Schedule.Protocol == string(TP) && (c.Schedule.Hosts > ScaleTPMaxHosts || n > ScaleTPMaxHosts) {
		return fmt.Errorf("sim: replay of TP over %d hosts refused: its dense vectors take 4n² B (%.1f GB), and TP runs up to ScaleTPMaxHosts = %d",
			n, 4*float64(n)*float64(n)/1e9, ScaleTPMaxHosts)
	}
	switch len(c.Protocols) {
	case 0:
	case 1:
		if string(c.Protocols[0]) != c.Schedule.Protocol {
			return fmt.Errorf("sim: replay schedule records protocol %s, Config selects %s",
				c.Schedule.Protocol, c.Protocols[0])
		}
	default:
		return fmt.Errorf("sim: replay runs exactly the schedule's protocol (%s); leave Protocols empty", c.Schedule.Protocol)
	}
	v := reflect.ValueOf(c)
	for i := range v.NumField() {
		if name := v.Type().Field(i).Name; !slices.Contains(replayReads, name) && !v.Field(i).IsZero() {
			return fmt.Errorf("sim: replay does not read Config.%s (it reads only %s): leave it zero",
				name, strings.Join(replayReads, ", "))
		}
	}
	return c.validateLog()
}

// validateLog checks the message-logging mode, which means the same in
// the generative and the replay mode.
func (c Config) validateLog() error {
	switch c.MessageLog {
	case mlog.Off, mlog.Pessimistic, mlog.Optimistic:
		return nil
	}
	return fmt.Errorf("sim: unknown MessageLog mode %v", c.MessageLog)
}

// initSlot fills slot i of p the way c asks: a store under
// c.Cost, with view a trace that is a view of p's history, a message log
// over that history if c.MessageLog, the protocol build constructs and,
// with c.Checks, an invariant checker. Both modes of Run build their
// slots here.
func (c Config) initSlot(p *protoside.Side, i int, view bool,
	build func(protocol.Checkpointer, *storage.Store) (protocol.Protocol, error)) error {
	lg, err := mlog.Open(c.MessageLog, p.Hist)
	if err != nil {
		return err
	}
	s := protoside.Slot{Store: storage.NewStore(c.Cost), MLog: lg}
	if view {
		s.Trace = p.Hist.View()
	}
	return p.InitSlot(i, s, c.Checks, build)
}
