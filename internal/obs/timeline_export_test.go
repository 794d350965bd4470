package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// timelineEnvelope is the JSON object format of the trace-event spec.
type timelineEnvelope struct {
	TraceEvents []TimelineEvent `json:"traceEvents"`
}

// referenceExport is what Export wrote before it streamed: the envelope,
// metadata first, through encoding/json's indenting encoder.
func referenceExport(t *Timeline) ([]byte, error) {
	env := timelineEnvelope{TraceEvents: []TimelineEvent{}}
	if t != nil {
		var ids []int
		for id := range t.tracks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			env.TraceEvents = append(env.TraceEvents, TimelineEvent{Name: "thread_name", Phase: "M", Tid: id,
				Args: map[string]string{"name": t.tracks[id]}})
		}
		env.TraceEvents = append(env.TraceEvents, t.Events()...)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(env)
	return buf.Bytes(), err
}

// TestExportIsTheEncoders holds the one-pass Export to the bytes of the
// encoder it replaced: on every committed timeline (the licence files of
// internal/sim and internal/live, which an import re-exports byte for
// byte), on empty timelines, and on strings and times that exercise every
// escaping and number-formatting rule.
func TestExportIsTheEncoders(t *testing.T) {
	var files []string
	for _, dir := range []string{"../sim/testdata/timeline", "../live/testdata/timeline"} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) < 6 {
		t.Fatalf("found %d licence files", len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(f) == "replay-bundle.json" {
			continue // a replay's input, not a timeline
		}
		tl, err := ImportTimeline(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := tl.Export(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), raw) {
			t.Errorf("%s: re-export differs (%d vs %d bytes)", f, got.Len(), len(raw))
		}
		if ref, err := referenceExport(tl); err != nil || !bytes.Equal(ref, raw) {
			t.Errorf("%s: the reference encoder differs (%v)", f, err)
		}
	}

	odd := NewTimeline()
	odd.SetTrack(-3, `a "quoted" <name> & more`)
	odd.SetTrack(2, "tab\there, newline\n, bell\x07, é, \u2028")
	odd.SetTrack(0, "")
	for i, ts := range []float64{0, -0.5, 1e-7, 1.5e-7, 1e-6, 123456789.125, 1e20, 1e21, 3.4e38, -2e-300} {
		odd.Instant(ts, i%3-1, "i<>&", "k\"", "v\\", "", "")
		odd.Span(ts, ts/3, 2, "span")
		odd.FlowBegin(ts, -3, "flow", uint64(i)<<40, "x", "y")
		odd.FlowStep(ts, -3, "flow", uint64(i)<<40)
		odd.FlowEnd(ts, -3, "flow", uint64(i)<<40)
	}
	odd.record(TimelineEvent{Name: "empty args", Phase: "i", Tid: 1, Args: map[string]string{}})
	// Invalid UTF-8 exports as U+FFFD, which an import then keeps: the one
	// string that does not round-trip.
	invalid := NewTimeline()
	invalid.SetTrack(0, "bad \xff byte")
	for name, tl := range map[string]*Timeline{"nil": nil, "empty": NewTimeline(), "odd": odd, "invalid": invalid} {
		var got bytes.Buffer
		if err := tl.Export(&got); err != nil {
			t.Fatal(err)
		}
		ref, err := referenceExport(tl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref) {
			t.Errorf("%s timeline:\n got %s\nwant %s", name, got.Bytes(), ref)
		}
		if tl == invalid {
			continue
		}
		back, err := ImportTimeline(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.Export(&again); err != nil || !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Errorf("%s timeline: an import does not re-export the same bytes (%v)", name, err)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tl := NewTimeline()
		tl.Instant(bad, 0, "x")
		if err := tl.Export(&bytes.Buffer{}); err == nil {
			t.Errorf("time %v exported", bad)
		}
	}
}
