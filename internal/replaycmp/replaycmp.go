// Package replaycmp is the differential-replay oracle: it defines the
// protocol-decision log both execution environments record — the live
// goroutine cluster while it runs, the deterministic sim engine while it
// re-executes the cluster's recorded trace.Schedule — and the comparator
// that holds the two logs to byte-identical decisions.
//
// The paper's claims are about decisions (basic vs. forced checkpoints,
// their causes, the rollback extent they admit), and CIC correctness is
// a function of the message-receive history alone. So if the live
// cluster and the sim disagree on any decision given the *same* history,
// one of them is wrong — Compare finds the first such divergence and
// reports it with enough context to debug.
package replaycmp

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mobickpt/internal/protocol"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// CauseKey classifies a checkpoint by its trigger: the storage kind
// plus, for basic checkpoints, the environment activity driving the
// protocol callback ("switch", "disconnect", ...). Both the sim engine's
// E19 breakdown and the replay decision logs use this classification, so
// live and replayed checkpoints compare on cause, not just kind.
func CauseKey(kind storage.Kind, cause string) string {
	switch kind {
	case storage.Initial:
		return "initial"
	case storage.Forced:
		return "forced"
	}
	switch cause {
	case "switch":
		return "basic-switch"
	case "disconnect":
		return "basic-disconnect"
	case "":
		return "basic-other"
	}
	return "basic-" + cause
}

// Fingerprint canonicalizes a piggyback value for comparison. The two
// sides hold different representations — the live cluster decodes
// dense piggybacks off the wire, the replay gets the protocol's
// interned values and views directly — so the fingerprint normalizes
// both to one string.
func Fingerprint(pb any) string {
	switch v := pb.(type) {
	case nil:
		return "none"
	case protocol.IndexPiggyback:
		return "idx:" + strconv.Itoa(int(v))
	case *protocol.TPView:
		return fingerprintTP(v.Dense())
	case protocol.TPPiggyback:
		return fingerprintTP(v)
	}
	return fmt.Sprintf("opaque:%T", pb)
}

func fingerprintTP(v protocol.TPPiggyback) string {
	return "tp:ckpt" + v.Ckpt.String() + ",loc" + v.Loc.String()
}

// Checkpoint is one recorded checkpoint decision of one host.
type Checkpoint struct {
	// Seq is the schedule position of the event that induced the
	// checkpoint (0 for the Init-time initial checkpoints).
	Seq uint64 `json:"seq"`
	// Ordinal is the checkpoint's position in the host's chain.
	Ordinal int `json:"ordinal"`
	// Index is the protocol's checkpoint index (sequence number).
	Index int `json:"index"`
	// Kind is the storage.Kind string ("initial", "basic", "forced").
	Kind string `json:"kind"`
	// Cause is the CauseKey classification.
	Cause string `json:"cause"`
}

// Delivery is one recorded message delivery to one host.
type Delivery struct {
	Seq  uint64 `json:"seq"`
	Msg  uint64 `json:"msg"`
	From int    `json:"from"`
	// Piggyback is the Fingerprint of the control information the
	// message carried at delivery.
	Piggyback string `json:"piggyback"`
	// RecvCount is the receiver's checkpoint count after the delivery
	// (after any forced checkpoint it induced) — the trace position the
	// orphan relation is built from.
	RecvCount int `json:"recv_count"`
}

// Log is the full decision record of one execution.
type Log struct {
	Protocol string `json:"protocol"`
	// Checkpoints[h] is host h's checkpoint sequence in order taken.
	Checkpoints [][]Checkpoint `json:"checkpoints"`
	// Deliveries[h] is host h's delivery sequence in order delivered.
	Deliveries [][]Delivery `json:"deliveries"`
	// RecoveryLines[f][h] is the ordinal host h restores after a crash
	// of host f (-1: h keeps everything): the protocol's recovery line
	// without a log, filled after the run by the protocol side
	// (protoside.Slot.FinishRecoveryLines).
	RecoveryLines [][]int `json:"recovery_lines"`
}

// NewLog returns an empty decision log for n hosts.
func NewLog(protocol string, n int) *Log {
	return &Log{
		Protocol:    protocol,
		Checkpoints: make([][]Checkpoint, n),
		Deliveries:  make([][]Delivery, n),
	}
}

// AddHost grows the log by one host (dynamic joins).
func (l *Log) AddHost() {
	l.Checkpoints = append(l.Checkpoints, nil)
	l.Deliveries = append(l.Deliveries, nil)
}

// NumHosts returns the current host count.
func (l *Log) NumHosts() int { return len(l.Checkpoints) }

// RecordCheckpoint appends one checkpoint decision for host h.
func (l *Log) RecordCheckpoint(h int, c Checkpoint) {
	l.Checkpoints[h] = append(l.Checkpoints[h], c)
}

// RecordDelivery appends one delivery for host h.
func (l *Log) RecordDelivery(h int, d Delivery) {
	l.Deliveries[h] = append(l.Deliveries[h], d)
}

// Divergence is the first point where two decision logs disagree.
type Divergence struct {
	// Field names what diverged: "protocol", "hosts" (the row count of
	// either table), "checkpoint", "delivery" or "recovery-line".
	Field string
	// Host is the disagreeing host (for "recovery-line", the failed
	// host whose line differs).
	Host int
	// Ordinal is the position in that host's sequence (checkpoint
	// ordinal, delivery ordinal, or the restoring host for a line).
	Ordinal int
	// Seq is the schedule position of the divergence (len(Events) for
	// post-run recovery lines).
	Seq uint64
	// Live and Replay describe the two decisions.
	Live, Replay string
	// Context is the vector-clock position of the divergence: per host,
	// the number of schedule events strictly before Seq.
	Context []int
	// Flows are Host's last sends and deliveries up to Seq, the event at
	// Seq included, oldest first (at most recentFlows): their message ids.
	Flows []Flow
}

// Flow is one send or delivery a Divergence cites: the schedule kind and
// the message id.
type Flow struct {
	Kind string
	Msg  uint64
}

func (f Flow) String() string { return f.Kind + " " + strconv.FormatUint(f.Msg, 10) }

// recentFlows is how many of the diverging host's last sends and
// deliveries a Divergence cites.
const recentFlows = 4

func (d *Divergence) String() string {
	s := fmt.Sprintf("first divergence: host %d %s #%d (schedule seq %d): live %s != replay %s",
		d.Host, d.Field, d.Ordinal, d.Seq, d.Live, d.Replay)
	if d.Context != nil {
		s += fmt.Sprintf("; events per host before divergence %v", d.Context)
	}
	if len(d.Flows) > 0 {
		flows := make([]string, len(d.Flows))
		for i, f := range d.Flows {
			flows[i] = f.String()
		}
		s += fmt.Sprintf("; host %d's last flows up to it: %s", d.Host, strings.Join(flows, ", "))
	}
	return s
}

func (c Checkpoint) describe() string {
	return fmt.Sprintf("%s idx %d cause %s (seq %d)", c.Kind, c.Index, c.Cause, c.Seq)
}

func (d Delivery) describe() string {
	return fmt.Sprintf("msg %d from %d pb %s recv-count %d (seq %d)", d.Msg, d.From, d.Piggyback, d.RecvCount, d.Seq)
}

// Compare returns the earliest divergence between a live decision log
// and a replayed one, or nil when they are identical. "Earliest" is by
// schedule position, so the report points at the first event the two
// executions interpreted differently, not a downstream symptom. sched,
// when non-nil, supplies the vector-clock context. Compare is total: two
// logs of different shape — another protocol, a table with more or fewer
// host rows — diverge before any row is read.
func Compare(live, replay *Log, sched *trace.Schedule) *Divergence {
	if live.Protocol != replay.Protocol {
		return &Divergence{Field: "protocol", Live: live.Protocol, Replay: replay.Protocol}
	}
	for _, table := range []struct {
		name         string
		live, replay int
	}{
		{"checkpoint", len(live.Checkpoints), len(replay.Checkpoints)},
		{"delivery", len(live.Deliveries), len(replay.Deliveries)},
	} {
		if table.live != table.replay {
			return &Divergence{
				Field:  "hosts",
				Live:   fmt.Sprintf("%d %s rows", table.live, table.name),
				Replay: fmt.Sprintf("%d %s rows", table.replay, table.name),
			}
		}
	}
	var best *Divergence
	consider := func(d *Divergence) {
		if best == nil || d.Seq < best.Seq {
			best = d
		}
	}
	for h := range live.Checkpoints {
		if d := firstCheckpointDiff(h, live.Checkpoints[h], replay.Checkpoints[h]); d != nil {
			consider(d)
		}
	}
	for h := range live.Deliveries {
		if d := firstDeliveryDiff(h, live.Deliveries[h], replay.Deliveries[h]); d != nil {
			consider(d)
		}
	}
	if best == nil {
		best = recoveryLineDiff(live, replay, sched)
	}
	if best != nil && sched != nil {
		best.Context, best.Flows = contextAt(sched, best.Seq, live.NumHosts(), best.Host)
	}
	return best
}

func firstCheckpointDiff(h int, live, replay []Checkpoint) *Divergence {
	for i := range live {
		if i >= len(replay) {
			return &Divergence{Field: "checkpoint", Host: h, Ordinal: i, Seq: live[i].Seq,
				Live: live[i].describe(), Replay: "(missing)"}
		}
		if live[i] != replay[i] {
			return &Divergence{Field: "checkpoint", Host: h, Ordinal: i, Seq: minSeq(live[i].Seq, replay[i].Seq),
				Live: live[i].describe(), Replay: replay[i].describe()}
		}
	}
	if len(replay) > len(live) {
		i := len(live)
		return &Divergence{Field: "checkpoint", Host: h, Ordinal: i, Seq: replay[i].Seq,
			Live: "(missing)", Replay: replay[i].describe()}
	}
	return nil
}

func firstDeliveryDiff(h int, live, replay []Delivery) *Divergence {
	for i := range live {
		if i >= len(replay) {
			return &Divergence{Field: "delivery", Host: h, Ordinal: i, Seq: live[i].Seq,
				Live: live[i].describe(), Replay: "(missing)"}
		}
		if live[i] != replay[i] {
			return &Divergence{Field: "delivery", Host: h, Ordinal: i, Seq: minSeq(live[i].Seq, replay[i].Seq),
				Live: live[i].describe(), Replay: replay[i].describe()}
		}
	}
	if len(replay) > len(live) {
		i := len(live)
		return &Divergence{Field: "delivery", Host: h, Ordinal: i, Seq: replay[i].Seq,
			Live: "(missing)", Replay: replay[i].describe()}
	}
	return nil
}

func recoveryLineDiff(live, replay *Log, sched *trace.Schedule) *Divergence {
	postRun := uint64(0)
	if sched != nil {
		postRun = uint64(len(sched.Events))
	}
	if len(live.RecoveryLines) != len(replay.RecoveryLines) {
		return &Divergence{Field: "recovery-line", Seq: postRun,
			Live:   fmt.Sprintf("%d lines", len(live.RecoveryLines)),
			Replay: fmt.Sprintf("%d lines", len(replay.RecoveryLines))}
	}
	for f := range live.RecoveryLines {
		lf, rf := live.RecoveryLines[f], replay.RecoveryLines[f]
		for h := 0; h < len(lf) || h < len(rf); h++ {
			lv, rv := "(missing)", "(missing)"
			same := len(lf) == len(rf)
			if h < len(lf) {
				lv = strconv.Itoa(lf[h])
			}
			if h < len(rf) {
				rv = strconv.Itoa(rf[h])
			}
			if same {
				same = lf[h] == rf[h]
			}
			if !same {
				return &Divergence{Field: "recovery-line", Host: f, Ordinal: h, Seq: postRun,
					Live:   fmt.Sprintf("after crash of %d, host %d restores %s", f, h, lv),
					Replay: fmt.Sprintf("after crash of %d, host %d restores %s", f, h, rv)}
			}
		}
	}
	return nil
}

func minSeq(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// contextAt counts, per host, the schedule events strictly before seq —
// a vector-clock-style position of the divergence in the recorded
// history — and lists host's last recentFlows sends and deliveries up to
// it, oldest first: the event at seq is the one the two executions
// interpreted differently, and a forced checkpoint's is the delivery
// that induced it.
func contextAt(sched *trace.Schedule, seq uint64, hosts, host int) ([]int, []Flow) {
	ctx := make([]int, hosts)
	var flows []Flow
	for _, ev := range sched.Events {
		if ev.Seq > seq {
			break
		}
		if ev.Seq < seq && ev.Host >= 0 && ev.Host < hosts {
			ctx[ev.Host]++
		}
		if ev.Host == host && (ev.Kind == trace.Send.String() || ev.Kind == trace.Deliver.String()) {
			if len(flows) == recentFlows {
				flows = append(flows[:0], flows[1:]...)
			}
			flows = append(flows, Flow{Kind: ev.Kind, Msg: ev.Msg})
		}
	}
	return ctx, flows
}

// Perturb flips the n-th checkpoint decision (counting across hosts in
// host order, then chain order): a basic checkpoint becomes forced and
// vice versa. It exists so tests and the CLI can prove the differ
// actually fails on a divergence — a gate that cannot fail verifies
// nothing. Returns false when the log has fewer than n+1 checkpoints.
func Perturb(l *Log, n int) bool {
	i := 0
	for h := range l.Checkpoints {
		for j := range l.Checkpoints[h] {
			if i == n {
				c := &l.Checkpoints[h][j]
				if c.Kind == storage.Forced.String() {
					c.Kind = storage.Basic.String()
					c.Cause = CauseKey(storage.Basic, "switch")
				} else {
					c.Kind = storage.Forced.String()
					c.Cause = CauseKey(storage.Forced, "")
				}
				return true
			}
			i++
		}
	}
	return false
}

// Bundle is the on-disk artifact of a recorded live run: the schedule to
// replay plus the live side's decision log to diff against.
type Bundle struct {
	Schedule *trace.Schedule `json:"schedule"`
	Live     *Log            `json:"live"`
}

// Export writes the bundle as JSON (deterministic, byte-identical for
// equal bundles — no maps anywhere in the envelope).
func (b *Bundle) Export(w io.Writer) error {
	return json.NewEncoder(w).Encode(b)
}

// ImportBundle reads a bundle written by Export and validates its
// schedule, and the live log's shape against it: the schedule's protocol,
// and one checkpoint row and one delivery row per final host.
func ImportBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("replaycmp: import bundle: %w", err)
	}
	if b.Schedule == nil || b.Live == nil {
		return nil, fmt.Errorf("replaycmp: bundle missing %s section",
			map[bool]string{true: "schedule", false: "live"}[b.Schedule == nil])
	}
	if err := b.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("replaycmp: import bundle: %w", err)
	}
	if b.Live.Protocol != b.Schedule.Protocol {
		return nil, fmt.Errorf("replaycmp: bundle live.protocol is %q, schedule.protocol %q",
			b.Live.Protocol, b.Schedule.Protocol)
	}
	hosts := b.Schedule.FinalHosts()
	if n := len(b.Live.Checkpoints); n != hosts {
		return nil, fmt.Errorf("replaycmp: bundle live.checkpoints has %d rows, schedule ends with %d hosts", n, hosts)
	}
	if n := len(b.Live.Deliveries); n != hosts {
		return nil, fmt.Errorf("replaycmp: bundle live.deliveries has %d rows, schedule ends with %d hosts", n, hosts)
	}
	return &b, nil
}
