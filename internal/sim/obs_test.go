package sim

import (
	"bytes"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
)

// obsConfig is testConfig over every protocol (so marker- and tick-driven
// basic checkpoints appear in the cause breakdown too), with logging on
// so the mlog instruments have activity to report.
func obsConfig() Config {
	c := testConfig()
	c.Protocols = AllProtocols()
	c.MessageLog = mlog.Optimistic
	return c
}

// The E19 invariant (and an acceptance criterion): every checkpoint is
// attributed to exactly one cause, the "initial" bucket matches the
// Initial count, and the non-initial buckets sum exactly to Ntot.
func TestCausesSumToNtot(t *testing.T) {
	res := mustRun(t, obsConfig())
	for _, pr := range res.Protocols {
		var nonInitial int64
		for key, v := range pr.Causes {
			if v <= 0 {
				t.Errorf("%s: cause %q has non-positive count %d", pr.Name, key, v)
			}
			if key != "initial" {
				nonInitial += v
			}
		}
		if pr.Causes["initial"] != pr.Initial {
			t.Errorf("%s: initial cause %d != Initial %d", pr.Name, pr.Causes["initial"], pr.Initial)
		}
		if nonInitial != pr.Ntot {
			t.Errorf("%s: causes sum %d != Ntot %d (breakdown %v)", pr.Name, nonInitial, pr.Ntot, pr.Causes)
		}
	}
}

// The metrics counters must agree exactly with the result: per-protocol
// sim_checkpoints_total over the cause labels reproduces Ntot.
func TestMetricsMatchResult(t *testing.T) {
	c := obsConfig()
	c.Metrics = obs.NewRegistry()
	res := mustRun(t, c)
	snap := c.Metrics.Snapshot()
	for _, pr := range res.Protocols {
		var total int64
		for key := range pr.Causes {
			v, ok := snap.Get("sim_checkpoints_total", "proto", string(pr.Name), "cause", key)
			if !ok {
				t.Fatalf("%s: no sim_checkpoints_total sample for cause %q", pr.Name, key)
			}
			if v != pr.Causes[key] {
				t.Errorf("%s/%s: counter %d != result %d", pr.Name, key, v, pr.Causes[key])
			}
			if key != "initial" {
				total += v
			}
		}
		if total != pr.Ntot {
			t.Errorf("%s: counters sum %d != Ntot %d", pr.Name, total, pr.Ntot)
		}
	}
	if v, ok := snap.Get("des_events_fired_total"); !ok || uint64(v) != res.EventsFired {
		t.Errorf("des_events_fired_total = %d (%v), want %d", v, ok, res.EventsFired)
	}
	if v, ok := snap.Get("sim_app_messages_total"); !ok || v != res.Network.AppMessages {
		t.Errorf("sim_app_messages_total = %d (%v), want %d", v, ok, res.Network.AppMessages)
	}
	// The forced-by-host attribution must sum to the forced cause bucket.
	for _, pr := range res.Protocols {
		var forced int64
		for _, s := range snap.Counters {
			if s.Name != "sim_forced_checkpoints_total" {
				continue
			}
			for _, l := range s.Labels {
				if l.Key == "proto" && l.Value == string(pr.Name) {
					forced += s.Value
				}
			}
		}
		if forced != pr.Causes["forced"] {
			t.Errorf("%s: per-host forced sum %d != forced bucket %d", pr.Name, forced, pr.Causes["forced"])
		}
	}
	// The mlog instruments must reproduce the log counters.
	for _, pr := range res.Protocols {
		if v, ok := snap.Get("mlog_appended_total", "proto", string(pr.Name)); !ok || v != pr.Log.Appended {
			t.Errorf("%s: mlog_appended_total = %d (%v), want %d", pr.Name, v, ok, pr.Log.Appended)
		}
	}
}

// Attaching metrics and a timeline must not perturb the trace: the
// observed run must report exactly the same outcomes as a bare one.
func TestObservabilityDoesNotPerturbTrace(t *testing.T) {
	bare := mustRun(t, obsConfig())
	c := obsConfig()
	c.Metrics = obs.NewRegistry()
	c.Timeline = obs.NewTimeline()
	c.Progress = func(des.Time, uint64) {}
	observed := mustRun(t, c)
	for i := range bare.Protocols {
		b, o := bare.Protocols[i], observed.Protocols[i]
		if b.Ntot != o.Ntot || b.Basic != o.Basic || b.Forced != o.Forced || b.PiggybackBytes != o.PiggybackBytes {
			t.Errorf("%s: observed run diverged: Ntot %d/%d basic %d/%d forced %d/%d piggyback %d/%d",
				b.Name, b.Ntot, o.Ntot, b.Basic, o.Basic, b.Forced, o.Forced, b.PiggybackBytes, o.PiggybackBytes)
		}
	}
	if bare.Network != observed.Network {
		t.Errorf("network counters diverged:\nbare     %+v\nobserved %+v", bare.Network, observed.Network)
	}
}

// Acceptance criterion: two same-seed runs emit byte-identical Chrome
// trace JSON.
func TestTimelineDeterministic(t *testing.T) {
	export := func() []byte {
		c := obsConfig()
		c.Timeline = obs.NewTimeline()
		mustRun(t, c)
		var buf bytes.Buffer
		if err := c.Timeline.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty timeline export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed timeline exports differ (%d vs %d bytes)", len(a), len(b))
	}
	// The export must be loadable Chrome trace JSON with recorded events.
	tl, err := obs.ImportTimeline(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, ev := range tl.Events() {
		kinds[ev.Name] = true
	}
	for _, want := range []string{"checkpoint", "handoff", "send", "deliver", "log-flush"} {
		if !kinds[want] {
			t.Errorf("timeline has no %q events (saw %v)", want, kinds)
		}
	}
}

// The progress callback fires about every Horizon/10 by default and
// reports a nondecreasing clock.
func TestProgressReporting(t *testing.T) {
	c := testConfig()
	var times []des.Time
	c.Progress = func(now des.Time, fired uint64) {
		times = append(times, now)
		if fired == 0 {
			t.Error("progress reported before any event fired")
		}
	}
	mustRun(t, c)
	if len(times) < 8 || len(times) > 11 {
		t.Fatalf("progress fired %d times, want ~10 (at %v)", len(times), times)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("progress clock went backwards: %v", times)
		}
	}
}

func TestCauseTable(t *testing.T) {
	base := testConfig()
	base.Horizon = 1000
	tab, err := CauseTable(base, []uint64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !bytes.Contains([]byte(s), []byte("TP")) || !bytes.Contains([]byte(s), []byte("QBC")) {
		t.Fatalf("cause table missing protocols:\n%s", s)
	}
}
