package replaycmp_test

// The differential test itself (E24): run the live goroutine cluster
// with recording on, re-execute its schedule through the deterministic
// sim engine, and require byte-identical decision logs — per-host
// checkpoint sequences with kinds, indices and causes, per-delivery
// piggyback fingerprints and receive counts, and the post-hoc
// recovery-line matrices. Any disagreement means one of the two
// execution environments misimplements the protocol.

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/live"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/sim"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

func record(t testing.TB, cfg live.Config, protocol string) *live.Cluster {
	t.Helper()
	mk, err := live.Factory(protocol)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Record = true
	c, err := live.NewCluster(cfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	return c
}

// replay re-executes c's recorded schedule under the same logging
// discipline and holds the two executions to identical decision logs
// and, when they log, to field-for-field equal message-log counters: a
// recorded run and its replay append, flush, prune and hand off the same
// entries at the same instants, or one of them is wrong. With
// instrumented set the replay also feeds a metrics registry and a
// timeline, which must change none of that.
func replay(t *testing.T, c *live.Cluster, cfg live.Config, instrumented bool) *sim.Result {
	t.Helper()
	rcfg := sim.Config{
		Schedule:   c.Schedule(),
		Checks:     true,
		MessageLog: cfg.LogMode,
	}
	if instrumented {
		rcfg.Metrics, rcfg.Timeline = obs.NewRegistry(), obs.NewTimeline()
	}
	res, err := sim.Run(rcfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	if d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule()); d != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, d)
	}
	if cfg.LogMode != mlog.Off {
		if got, want := res.Protocols[0].Log, c.MLog().Counters(); got != want {
			t.Fatalf("seed %d: replayed log counters %+v, live %+v", cfg.Seed, got, want)
		}
	}
	return res
}

// The tentpole gate: live and replayed decisions must be identical for
// every CIC protocol across seeds, mobility rates and logging
// disciplines. The logged TP rows prove "unpruned on both sides", the
// logged BCS/QBC rows "pruned identically". Whether a short live run of
// BCS or QBC prunes at all is the scheduler's call, so those rows also
// replay an engine history under their discipline, which must prune.
func TestDifferentialReplay(t *testing.T) {
	rates := []struct {
		name              string
		pswitch, pdisconn float64
	}{
		{"calm", 0.05, 0.02},
		{"stormy", 0.15, 0.08},
	}
	for _, protocol := range []string{"TP", "BCS", "QBC"} {
		for _, rate := range rates {
			t.Run(fmt.Sprintf("%s/%s", protocol, rate.name), func(t *testing.T) {
				t.Parallel()
				for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
					t.Run("log-"+mode.String(), func(t *testing.T) {
						t.Parallel()
						var pruned int64
						for seed := uint64(1); seed <= 5; seed++ {
							cfg := live.DefaultConfig()
							cfg.Seed = seed
							cfg.OpsPerHost = 200
							cfg.PSwitch = rate.pswitch
							cfg.PDisconnect = rate.pdisconn
							cfg.LogMode = mode
							c := record(t, cfg, protocol)
							replay(t, c, cfg, false)
							replay(t, c, cfg, true)
							if mode != mlog.Off {
								pruned += c.MLog().Counters().Pruned
							}
						}
						switch {
						case mode == mlog.Off:
						case protocol == "TP":
							if pruned != 0 {
								t.Fatalf("TP hand-offs pruned %d log entries over five seeds", pruned)
							}
						default:
							res, err := sim.Run(sim.Config{Schedule: engineHistory(t, protocol, mode), Checks: true, MessageLog: mode})
							if err != nil {
								t.Fatal(err)
							}
							if res.Protocols[0].Log.Pruned == 0 {
								t.Fatalf("%s hand-offs pruned nothing replaying an engine history", protocol)
							}
						}
					})
				}
			})
		}
	}
}

// Dynamic joins ride the schedule too — and hold the pruning frontier
// back on both sides alike.
func TestDifferentialReplayWithJoins(t *testing.T) {
	for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
		t.Run("log-"+mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := live.DefaultConfig()
			cfg.OpsPerHost = 200
			cfg.Joins = 4
			cfg.LogMode = mode
			c := record(t, cfg, "QBC")
			for _, instrumented := range []bool{false, true} {
				res := replay(t, c, cfg, instrumented)
				if res.FinalHosts != cfg.Hosts+cfg.Joins {
					t.Fatalf("replay ends with %d hosts, want %d", res.FinalHosts, cfg.Hosts+cfg.Joins)
				}
			}
		})
	}
}

// The recovery gate (E33): a live failure ends in the protocol's own
// recovery line, and the replay bridge re-derives it. For every live
// protocol, logging discipline and seed, plus a run with joins, and every
// host as the failed one: without a log the cut Recover executes is the
// decision log's matrix row; E8's analysis of the replay
// (sim.AnalyzeReplay, under the recording's logging discipline) restores
// that row as its plain line; and with a log its replay-aware line is the
// cut the cluster executed.
func TestDifferentialReplayRecovery(t *testing.T) {
	type run struct {
		protocol string
		mode     mlog.Mode
		seed     uint64
		joins    int
	}
	runs := []run{{"TP", mlog.Off, 1, 2}}
	for _, protocol := range []string{"TP", "BCS", "QBC", "UNC"} {
		for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
			for seed := uint64(1); seed <= 3; seed++ {
				runs = append(runs, run{protocol, mode, seed, 0})
			}
		}
	}
	row := func(cut recovery.Cut) []int {
		out := make([]int, len(cut))
		for h, ord := range cut {
			if ord == recovery.End {
				ord = -1
			}
			out[h] = ord
		}
		return out
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s/log-%s/seed-%d/joins-%d", r.protocol, r.mode, r.seed, r.joins), func(t *testing.T) {
			t.Parallel()
			cfg := live.DefaultConfig()
			cfg.Seed = r.seed
			cfg.OpsPerHost = 200
			cfg.Joins = r.joins
			cfg.LogMode = r.mode
			c := record(t, cfg, r.protocol)
			pr := &replay(t, c, cfg, false).Protocols[0]
			lines := c.Decisions().RecoveryLines
			n := pr.Trace.NumHosts()
			for f := 0; f < n; f++ {
				rep, err := c.Recover(mobile.HostID(f))
				if err != nil {
					t.Fatalf("live failure of host %d: %v", f, err)
				}
				out, err := sim.AnalyzeReplay(pr, n, mobile.HostID(f), 0)
				if err != nil {
					t.Fatalf("replayed failure of host %d: %v", f, err)
				}
				if got := row(out.PlainCut); !slices.Equal(got, lines[f]) {
					t.Fatalf("failure of host %d: the replay's line %v, the live matrix row %v", f, got, lines[f])
				}
				if r.mode == mlog.Off {
					if got := row(rep.Cut); !slices.Equal(got, lines[f]) {
						t.Fatalf("failure of host %d: live recovery restored %v, its matrix row is %v", f, got, lines[f])
					}
				} else if !slices.Equal(out.ReplayCut, rep.Cut) {
					t.Fatalf("failure of host %d: live replay-aware recovery restored %v, the replay's line is %v",
						f, row(rep.Cut), row(out.ReplayCut))
				}
			}
		})
	}
}

// engineHistory is a schedule no scheduler decides: the history of a
// short engine run of protocol with one join, under a log discipline
// whose BCS and QBC hand-offs prune.
func engineHistory(t *testing.T, protocol string, mode mlog.Mode) *trace.Schedule {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Horizon = 3000
	cfg.Workload.TSwitch = 200
	cfg.Workload.PComm = 0.2
	cfg.Workload.PSwitch = 0.8
	cfg.Workload.DisconnectMean = 300
	cfg.JoinTimes = []des.Time{900}
	cfg.MessageLog = mode
	cfg.Protocols = []sim.ProtocolName{sim.ProtocolName(protocol)}
	cfg.RecordTrace = true
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Protocols[0].Trace.History().Schedule(0, protocol, cfg.Seed)
}

// The third world: the live cluster mirrors its events through the same
// protocol side as the replay, with the same clock (the logical tick) and
// the same flow ids (the packet ids), so its instruments and the replay's
// are one recording. Up to the first Recover the two timelines export the
// same bytes, and every protocol-side sample (sim_* and mlog_*) of the
// live registry is the replay's — across protocols, log disciplines and
// joins.
func TestDifferentialReplayInstruments(t *testing.T) {
	for _, protocol := range []string{"TP", "BCS", "QBC"} {
		for _, mode := range []mlog.Mode{mlog.Off, mlog.Pessimistic, mlog.Optimistic} {
			t.Run(protocol+"/log-"+mode.String(), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= 2; seed++ {
					cfg := live.DefaultConfig()
					cfg.Seed = seed
					cfg.OpsPerHost = 200
					cfg.Joins = 2
					cfg.LogMode = mode
					cfg.Metrics, cfg.Timeline = obs.NewRegistry(), obs.NewTimeline()
					c := record(t, cfg, protocol)
					res := replay(t, c, cfg, true)

					var lt, rt bytes.Buffer
					if err := cfg.Timeline.Export(&lt); err != nil {
						t.Fatal(err)
					}
					if err := res.Config.Timeline.Export(&rt); err != nil {
						t.Fatal(err)
					}
					if cfg.Timeline.Len() == 0 || !bytes.Equal(lt.Bytes(), rt.Bytes()) {
						t.Fatalf("seed %d: live timeline (%d B) and replayed timeline (%d B) differ",
							seed, lt.Len(), rt.Len())
					}
					ls, rs := protocolSide(cfg.Metrics.Snapshot()), protocolSide(res.Config.Metrics.Snapshot())
					if fmt.Sprint(ls) != fmt.Sprint(rs) {
						t.Fatalf("seed %d: live protocol-side samples\n%v\nreplayed\n%v", seed, ls, rs)
					}
					if got := ls["sim_checkpoints_total{cause=initial,proto="+protocol+"}"]; got != int64(cfg.Hosts+cfg.Joins) {
						t.Fatalf("seed %d: %d initial checkpoints counted for %d hosts: %v", seed, got, cfg.Hosts+cfg.Joins, ls)
					}
				}
			})
		}
	}
}

// protocolSide keys a snapshot's sim_* and mlog_* samples — the protocol
// side's instruments — by name and labels.
func protocolSide(snap obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, smp := range append(snap.Counters, snap.Gauges...) {
		if !strings.HasPrefix(smp.Name, "sim_") && !strings.HasPrefix(smp.Name, "mlog_") {
			continue
		}
		var kv []string
		for _, l := range smp.Labels {
			kv = append(kv, l.Key+"="+l.Value)
		}
		out[smp.Name+"{"+strings.Join(kv, ",")+"}"] = smp.Value
	}
	return out
}

// The gate must be able to fail: perturbing a single replayed decision
// has to surface as a divergence at exactly that decision. A differ
// that cannot reject anything verifies nothing. The decision perturbed is
// the first forced checkpoint in the log's order, so that whatever the
// interleaving its host has a delivery at the divergence to cite.
func TestDifferentialReplayDetectsPerturbation(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.OpsPerHost = 200
	c := record(t, cfg, "QBC")
	res := replay(t, c, cfg, false)
	forced, n := -1, 0
	for _, chain := range res.Decisions.Checkpoints {
		for _, ck := range chain {
			if forced < 0 && ck.Kind == storage.Forced.String() {
				forced = n
			}
			n++
		}
	}
	if forced < 0 {
		t.Fatal("the replay took no forced checkpoint to perturb")
	}
	if !replaycmp.Perturb(res.Decisions, forced) {
		t.Fatal("perturbation refused")
	}
	d := replaycmp.Compare(c.Decisions(), res.Decisions, c.Schedule())
	if d == nil {
		t.Fatal("perturbed replay still compares equal — the gate cannot fail")
	}
	if d.Field != "checkpoint" {
		t.Fatalf("divergence field %q, want checkpoint", d.Field)
	}
	if d.Context == nil {
		t.Fatal("divergence report lacks vector-clock context")
	}
	// It cites the flow ids around the divergence: the diverging host's
	// last sends and deliveries up to it, as the schedule recorded them,
	// ending with the delivery that induced the forced checkpoint.
	var want []replaycmp.Flow
	for _, ev := range c.Schedule().Events {
		if ev.Seq <= d.Seq && ev.Host == d.Host && (ev.Kind == trace.Send.String() || ev.Kind == trace.Deliver.String()) {
			want = append(want, replaycmp.Flow{Kind: ev.Kind, Msg: ev.Msg})
		}
	}
	if len(want) > len(d.Flows) {
		want = want[len(want)-len(d.Flows):]
	}
	if len(d.Flows) == 0 || d.Flows[len(d.Flows)-1].Kind != trace.Deliver.String() || !slices.Equal(d.Flows, want) {
		t.Fatalf("divergence cites flows %v, the schedule's last up to seq %d of host %d are %v", d.Flows, d.Seq, d.Host, want)
	}
	for _, f := range d.Flows {
		if !strings.Contains(d.String(), f.String()) {
			t.Fatalf("divergence report %q does not print flow %s", d, f)
		}
	}
}

// The instruments a replay now takes say what the run did: on an engine
// history with a join and an optimistic log — a schedule whose hand-offs
// prune whatever the scheduler does — the timeline carries one
// checkpoint instant per store record (that record's kind, index and
// cause), one send and one deliver instant per scheduled send and
// delivery, and chains every forced checkpoint into the flow of the
// delivery that induced it; the checkpoint counters equal the result's
// cause breakdown key for key and the mlog instruments its log counters,
// each of which shows activity. Two replays of the schedule export the
// same bytes.
func TestReplayInstruments(t *testing.T) {
	sched := engineHistory(t, "QBC", mlog.Optimistic)
	replayed := func() *sim.Result {
		res, err := sim.Run(sim.Config{Schedule: sched, Checks: true, MessageLog: mlog.Optimistic,
			Metrics: obs.NewRegistry(), Timeline: obs.NewTimeline()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := replayed()
	reg, tl := res.Config.Metrics, res.Config.Timeline
	pr := &res.Protocols[0]

	byTrack := make([][]obs.TimelineEvent, res.FinalHosts)
	for _, ev := range tl.Events() {
		byTrack[ev.Tid] = append(byTrack[ev.Tid], ev)
	}
	// A message's flow is its sender and the sender's send ordinal.
	flowOf, sent := map[uint64]uint64{}, map[int]uint64{}
	for _, ev := range sched.Events {
		if ev.Kind == trace.Send.String() {
			flowOf[ev.Msg] = uint64(ev.Host)<<32 | sent[ev.Host]
			sent[ev.Host]++
		}
	}
	instants := map[string]int{}
	for h, evs := range byTrack {
		chain := pr.Store.Chain(mobile.HostID(h))
		ord := 0
		for k, ev := range evs {
			if ev.Phase != "i" {
				continue
			}
			instants[ev.Name]++
			if ev.Name != "checkpoint" {
				continue
			}
			if ord >= len(chain) {
				t.Fatalf("host %d: more checkpoint instants than its %d store records", h, len(chain))
			}
			rec, dec := chain[ord], res.Decisions.Checkpoints[h][ord]
			want := map[string]string{"proto": "QBC", "kind": rec.Kind.String(), "cause": dec.Cause, "index": strconv.Itoa(int(rec.Index))}
			if fmt.Sprint(ev.Args) != fmt.Sprint(want) || ev.Ts != float64(rec.TakenAt) {
				t.Fatalf("host %d checkpoint #%d: instant %v at %v, record wants %v at %v", h, ord, ev.Args, ev.Ts, want, rec.TakenAt)
			}
			if dec.Kind == "forced" {
				// The inducing event is a delivery of the flow's message.
				flow := strconv.FormatUint(flowOf[sched.Events[dec.Seq].Msg], 10)
				if k+1 >= len(evs) || evs[k+1].Phase != "t" || evs[k+1].Name != "msg-flow" || evs[k+1].ID != flow {
					t.Fatalf("host %d forced checkpoint #%d is not chained into flow %s", h, ord, flow)
				}
			}
			ord++
		}
		if ord != len(chain) {
			t.Fatalf("host %d: %d checkpoint instants for %d store records", h, ord, len(chain))
		}
	}
	scheduled := map[string]int{}
	for _, ev := range sched.Events {
		scheduled[ev.Kind]++
	}
	for _, kind := range []string{trace.Send.String(), trace.Deliver.String(), trace.Join.String()} {
		if instants[kind] != scheduled[kind] || scheduled[kind] == 0 {
			t.Errorf("%d %s instants for %d scheduled", instants[kind], kind, scheduled[kind])
		}
	}

	snap := reg.Snapshot()
	get := func(name string, kv ...string) int64 {
		v, ok := snap.Get(name, kv...)
		if !ok {
			t.Errorf("no %s%v sample", name, kv)
		}
		return v
	}
	var causes int
	for _, smp := range snap.Counters {
		if smp.Name == "sim_checkpoints_total" {
			causes++
		}
	}
	if causes != len(pr.Causes) {
		t.Errorf("%d sim_checkpoints_total samples for %d causes %v", causes, len(pr.Causes), pr.Causes)
	}
	for key, n := range pr.Causes {
		if v := get("sim_checkpoints_total", "proto", "QBC", "cause", key); v != n {
			t.Errorf("sim_checkpoints_total{cause=%s} = %d, result says %d", key, v, n)
		}
	}
	for name, want := range map[string]int64{
		"mlog_appended_total":        pr.Log.Appended,
		"mlog_flushes_total":         pr.Log.Flushes,
		"mlog_flushed_entries_total": pr.Log.FlushedEntries,
		"mlog_stable_bytes_total":    pr.Log.StableBytes,
		"mlog_handoffs_total":        pr.Log.Handoffs,
		"mlog_transfer_bytes_total":  pr.Log.TransferBytes,
		"mlog_pruned_total":          pr.Log.Pruned,
		"mlog_retained_entries":      pr.Log.FlushedEntries - pr.Log.Pruned,
	} {
		if v := get(name, "proto", "QBC"); v != want || (want == 0 && name != "mlog_retained_entries") {
			t.Errorf("%s = %d, log counters say %d (want activity)", name, v, want)
		}
	}

	var a, b bytes.Buffer
	if err := tl.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := replayed().Config.Timeline.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two replays of one schedule export different timelines")
	}
}
