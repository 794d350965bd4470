package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mobickpt/internal/race"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("z", []float64{1})
	r.CounterFunc("cf", func() int64 { return 1 })
	r.GaugeFunc("gf", func() int64 { return 1 })
	c.Inc()
	c.Add(5)
	h.Observe(0.5)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must discard updates")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tl *Timeline
	tl.Instant(1, 0, "e")
	tl.Span(1, 2, 0, "s")
	tl.FlowBegin(1, 0, "flow", 7)
	tl.FlowStep(2, 1, "flow", 7)
	tl.FlowEnd(2, 1, "flow", 7)
	tl.SetTrack(0, "x")
	if tl.Len() != 0 {
		t.Fatal("nil timeline recorded events")
	}
	var buf bytes.Buffer
	if err := tl.Export(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs", "proto", "QBC")
	b := r.Counter("reqs", "proto", "QBC")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("reqs", "proto", "BCS"); c == a {
		t.Fatal("different labels must return a different counter")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("counter = %d, want 3", a.Value())
	}
	// A gauge is a sampled func: re-registering its name+labels replaces
	// the callback rather than adding a second series.
	r.GaugeFunc("depth", func() int64 { return 7 })
	r.GaugeFunc("depth", func() int64 { return 5 })
	if s := r.Snapshot(); len(s.Gauges) != 1 || s.Gauges[0].Value != 5 {
		t.Fatalf("gauges = %+v, want one depth = 5", s.Gauges)
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "x", "1", "y", "2")
	b := r.Counter("c", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order must not matter")
	}
}

func TestOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	NewRegistry().Counter("c", "k")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v", h.Sum())
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	hs := s.Histograms[0]
	// le=1 counts 0.5 and 1 (inclusive upper bound), le=2 adds 1.5,
	// le=4 adds 3, +Inf (Count) adds 100.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d", i, hs.Counts[i], w)
		}
	}
	// Monotonicity of the cumulative series, as Prometheus requires.
	for i := 1; i < len(hs.Counts); i++ {
		if hs.Counts[i] < hs.Counts[i-1] {
			t.Fatalf("bucket counts not monotone at %d", i)
		}
	}
}

// TestHistogramBucketSearch cross-checks Observe's inlined binary search
// against sort.SearchFloat64s, the specification it replaced, over wide
// bucket sets and boundary-exact values.
func TestHistogramBucketSearch(t *testing.T) {
	bounds := make([]float64, 64)
	for i := range bounds {
		bounds[i] = float64(i * i)
	}
	r := NewRegistry()
	h := r.Histogram("wide", bounds)
	var values []float64
	for i := -1; i < 66; i++ {
		v := float64(i * i) // hits every bound exactly
		values = append(values, v, v-0.5, v+0.5)
	}
	want := make([]int64, len(bounds)+1)
	for _, v := range values {
		h.Observe(v)
		want[sort.SearchFloat64s(bounds, v)]++
	}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

// TestHistogramObserveZeroAlloc guards the per-event observation path:
// recording into even a wide histogram must not allocate.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	bounds := make([]float64, 128)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	h := NewRegistry().Histogram("wide", bounds)
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 0.37
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %v times per call, want 0", allocs)
	}
}

func TestExpLinearBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	for i, w := range []float64{1, 2, 4, 8} {
		if got[i] != w {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, got[i], w)
		}
	}
	got = LinearBuckets(0, 5, 3)
	for i, w := range []float64{0, 5, 10} {
		if got[i] != w {
			t.Fatalf("LinearBuckets[%d] = %v, want %v", i, got[i], w)
		}
	}
}

func TestSampledFuncs(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.CounterFunc("sampled_total", func() int64 { return n })
	r.GaugeFunc("sampled_now", func() int64 { return -n })
	n++
	s := r.Snapshot()
	if v, ok := s.Get("sampled_total"); !ok || v != 42 {
		t.Fatalf("counter func = %d, %v", v, ok)
	}
	if v, ok := s.Get("sampled_now"); !ok || v != -42 {
		t.Fatalf("gauge func = %d, %v", v, ok)
	}
}

// parsePrometheus is a minimal validator of the text exposition format:
// every non-comment line must be `name{labels} value` or `name value`,
// label values must be correctly quoted, and every metric family must
// carry a # HELP line followed by its # TYPE line before any sample.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	helped := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("bad HELP line %q", line)
			}
			helped[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			if _, ok := helped[parts[2]]; !ok {
				t.Fatalf("TYPE line %q has no preceding HELP line", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			name = key[:i]
			labels := key[i+1 : len(key)-1]
			// Each label must be k="escaped-v".
			for len(labels) > 0 {
				eq := strings.IndexByte(labels, '=')
				if eq < 0 || len(labels) < eq+2 || labels[eq+1] != '"' {
					t.Fatalf("bad label in %q", line)
				}
				rest := labels[eq+2:]
				end := -1
				for j := 0; j < len(rest); j++ {
					if rest[j] == '\\' {
						j++
						continue
					}
					if rest[j] == '"' {
						end = j
						break
					}
				}
				if end < 0 {
					t.Fatalf("unterminated label value in %q", line)
				}
				labels = rest[end+1:]
				labels = strings.TrimPrefix(labels, ",")
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if typed[strings.TrimSuffix(name, suffix)] == "histogram" {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
		samples[key] = val
	}
	return samples
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("ckpt_total", "proto", "QBC", "cause", "forced").Add(7)
	r.Counter("ckpt_total", "proto", "TP", "cause", "basic-switch").Add(3)
	r.GaugeFunc("queue_depth", func() int64 { return 12 })
	h := r.Histogram("rollback_depth", []float64{1, 2, 4}, "proto", "UNC")
	h.Observe(3)
	h.Observe(0.5)
	// A label value exercising every escape rule.
	r.Counter("weird", "path", "a\\b\"c\nd").Inc()

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := parsePrometheus(t, text)

	if v := samples[`ckpt_total{cause="forced",proto="QBC"}`]; v != 7 {
		t.Fatalf("QBC forced = %v", v)
	}
	if v := samples[`queue_depth`]; v != 12 {
		t.Fatalf("queue_depth = %v", v)
	}
	if v := samples[`weird{path="a\\b\"c\nd"}`]; v != 1 {
		t.Fatalf("escaped label sample missing:\n%s", text)
	}
	// Histogram series: buckets cumulative and monotone, +Inf == count.
	b1 := samples[`rollback_depth_bucket{proto="UNC",le="1"}`]
	b2 := samples[`rollback_depth_bucket{proto="UNC",le="2"}`]
	b4 := samples[`rollback_depth_bucket{proto="UNC",le="4"}`]
	inf := samples[`rollback_depth_bucket{proto="UNC",le="+Inf"}`]
	cnt := samples[`rollback_depth_count{proto="UNC"}`]
	if !(b1 <= b2 && b2 <= b4 && b4 <= inf) {
		t.Fatalf("buckets not monotone: %v %v %v %v", b1, b2, b4, inf)
	}
	if inf != cnt || cnt != 2 {
		t.Fatalf("+Inf bucket %v != count %v", inf, cnt)
	}
	if samples[`rollback_depth_sum{proto="UNC"}`] != 3.5 {
		t.Fatalf("sum = %v", samples[`rollback_depth_sum{proto="UNC"}`])
	}
}

// Every instrument family — counters, histograms, and the
// sampled CounterFunc/GaugeFunc instruments — must expose a # HELP
// line: the registered text when Help was called, a name-derived
// fallback otherwise, with backslashes and newlines escaped.
func TestPrometheusHelp(t *testing.T) {
	r := NewRegistry()
	r.Help("a_total", "Things counted.")
	r.Counter("a_total", "proto", "QBC").Inc()
	r.Counter("unhelped_total").Inc() // no Help registered: fallback
	r.Help("depth_now", `escape \ and
newline`)
	r.GaugeFunc("depth_now", func() int64 { return 3 })
	r.Help("lat", "Latency ladder.")
	r.Histogram("lat", []float64{1, 2}).Observe(1)
	r.Help("cf_total", "Sampled counter.")
	r.CounterFunc("cf_total", func() int64 { return 1 })
	r.Help("gf_now", "Sampled gauge.")
	r.GaugeFunc("gf_now", func() int64 { return 2 })

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	parsePrometheus(t, text) // enforces HELP-before-TYPE-before-samples

	for _, want := range []string{
		"# HELP a_total Things counted.\n",
		"# HELP unhelped_total unhelped total.\n",
		`# HELP depth_now escape \\ and\nnewline` + "\n",
		"# HELP lat Latency ladder.\n",
		"# HELP cf_total Sampled counter.\n",
		"# HELP gf_now Sampled gauge.\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// One HELP line per family, not per labeled sample.
	if n := strings.Count(text, "# HELP a_total"); n != 1 {
		t.Errorf("a_total has %d HELP lines, want 1", n)
	}
}

// A snapshot is ordered by (name, labels) whatever order the instruments
// were registered in and whatever order the registry's maps iterate in:
// with 64 of each kind, an unsorted snapshot matches the expectation
// with probability 1/64!.
func TestSnapshotDeterministicOrder(t *testing.T) {
	const n = 64
	r := NewRegistry()
	for k := 0; k < n; k++ {
		i := fmt.Sprintf("%02d", k*37%n) // 37 is coprime to 64: a fixed shuffle
		r.Counter("c_total", "i", i).Inc()
		r.GaugeFunc("g", func() int64 { return 1 }, "i", i)
		r.Histogram("h", []float64{1}, "i", i).Observe(0)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != n || len(snap.Gauges) != n || len(snap.Histograms) != n {
		t.Fatalf("snapshot has %d counters, %d gauges, %d histograms, want %d of each",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), n)
	}
	for k := 0; k < n; k++ {
		want := fmt.Sprintf("%02d", k)
		got := [3]string{snap.Counters[k].Labels[0].Value, snap.Gauges[k].Labels[0].Value, snap.Histograms[k].Labels[0].Value}
		if got != [3]string{want, want, want} {
			t.Fatalf("position %d holds counter, gauge, histogram %v, want %s in each", k, got, want)
		}
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("par_total").Inc()
				r.Histogram("par_h", []float64{10, 100}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("par_total").Value(); v != 8000 {
		t.Fatalf("concurrent counter = %d", v)
	}
	if c := r.Histogram("par_h", []float64{10, 100}).Count(); c != 8000 {
		t.Fatalf("concurrent histogram count = %d", c)
	}
}

func TestTimelineRoundTrip(t *testing.T) {
	tl := NewTimeline()
	tl.SetTrack(0, "MH 0")
	tl.SetTrack(1, "MH 1")
	tl.Instant(1.5, 0, "checkpoint", "kind", "forced", "proto", "QBC")
	tl.Span(2, 3.25, 1, "disconnected")
	tl.Instant(6, 1, "deliver", "from", "0")

	var a bytes.Buffer
	if err := tl.Export(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ImportTimeline(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := got.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("timeline round trip not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
	if got.Len() != 3 {
		t.Fatalf("imported %d events", got.Len())
	}
	evs := got.Events()
	if evs[0].Name != "checkpoint" || evs[0].Args["proto"] != "QBC" {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Phase != "X" || evs[1].Dur != 3.25 {
		t.Fatalf("span = %+v", evs[1])
	}
}

// Flow events round-trip through export/import byte-identically and
// carry their binding id in the Chrome legacy flow encoding.
func TestTimelineFlowRoundTrip(t *testing.T) {
	tl := NewTimeline()
	tl.SetTrack(0, "MH 0")
	tl.SetTrack(1, "MH 1")
	tl.Instant(1, 0, "send", "to", "1")
	tl.FlowBegin(1, 0, "msg-flow", 42, "to", "1")
	tl.FlowStep(3, 1, "msg-flow", 42)
	tl.FlowEnd(3.5, 1, "msg-flow", 42)

	var a bytes.Buffer
	if err := tl.Export(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ImportTimeline(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := got.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("flow round trip not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
	evs := got.Events()
	if len(evs) != 4 {
		t.Fatalf("imported %d events, want 4", len(evs))
	}
	phases := []string{"i", "s", "t", "f"}
	for i, want := range phases {
		if evs[i].Phase != want {
			t.Fatalf("event %d phase = %q, want %q (%+v)", i, evs[i].Phase, want, evs[i])
		}
	}
	for _, ev := range evs[1:] {
		if ev.ID != "42" {
			t.Fatalf("flow event id = %q, want 42 (%+v)", ev.ID, ev)
		}
	}
	if evs[3].Bind != "e" {
		t.Fatalf("flow end bind = %q, want e", evs[3].Bind)
	}
}

// Export order is canonical (track, per-track sequence): recording the
// same per-track streams under a different cross-track interleaving
// exports byte-identically — the property the parallel engines lean on.
func TestTimelineCanonicalOrder(t *testing.T) {
	a, b := NewTimeline(), NewTimeline()
	for _, tl := range []*Timeline{a, b} {
		tl.SetTrack(0, "MH 0")
		tl.SetTrack(1, "MH 1")
	}
	// Interleaving 1: track 0 first, then track 1.
	a.Instant(1, 0, "send", "to", "1")
	a.Instant(5, 0, "checkpoint")
	a.Instant(3, 1, "deliver", "from", "0")
	a.Instant(4, 1, "checkpoint")
	// Interleaving 2: alternating, as two lanes would emit.
	b.Instant(3, 1, "deliver", "from", "0")
	b.Instant(1, 0, "send", "to", "1")
	b.Instant(4, 1, "checkpoint")
	b.Instant(5, 0, "checkpoint")

	var ea, eb bytes.Buffer
	if err := a.Export(&ea); err != nil {
		t.Fatal(err)
	}
	if err := b.Export(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatalf("interleaving leaked into export:\n%s\nvs\n%s", ea.String(), eb.String())
	}
	evs := a.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Tid < evs[i-1].Tid {
			t.Fatalf("events not track-ordered: %+v before %+v", evs[i-1], evs[i])
		}
	}

	// Track names export in track-id order, not in the order the tracks
	// map iterates in (64 tracks: a chance order passes once in 64!).
	const tracks = 64
	c := NewTimeline()
	for k := 0; k < tracks; k++ {
		id := k * 37 % tracks
		c.SetTrack(id, fmt.Sprint("MH ", id))
	}
	var ec bytes.Buffer
	if err := c.Export(&ec); err != nil {
		t.Fatal(err)
	}
	var env timelineEnvelope
	if err := json.Unmarshal(ec.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.TraceEvents) != tracks {
		t.Fatalf("exported %d metadata events, want %d", len(env.TraceEvents), tracks)
	}
	for k, ev := range env.TraceEvents {
		if ev.Tid != k {
			t.Fatalf("metadata event %d names track %d", k, ev.Tid)
		}
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(9)
	RegisterRuntimeGauges(r)
	srv, addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "served_total 9") {
		t.Fatalf("metrics endpoint missing counter:\n%s", text)
	}
	if !strings.Contains(text, "go_goroutines") {
		t.Fatalf("runtime gauges missing:\n%s", text)
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status %d", resp2.StatusCode)
	}
	resp3, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK || strings.TrimSpace(string(health)) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", resp3.StatusCode, health)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
