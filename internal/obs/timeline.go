package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Timeline records per-host instants, spans and causal flow chains and
// exports them as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Tracks are keyed by an integer
// id (the host id; the engines name them via SetTrack). Virtual time
// units map 1:1 onto trace microseconds.
//
// Given a deterministic event source (the DES engines under a fixed
// seed), Export produces byte-identical output across runs — and across
// execution engines: every event carries a per-track sequence number
// assigned at record time, and Export orders the stream canonically by
// (track, sequence). The lane engine emits each track's events in the
// same deterministic order the sequential engine does, so the per-track
// subsequences agree and the canonical order erases the cross-track
// interleaving, which depends on the lane count.
//
// A nil *Timeline discards all records, so engines can call it
// unconditionally. The struct is safe for concurrent use.
type Timeline struct {
	mu     sync.Mutex
	tracks map[int]string
	seqs   map[int]uint64
	events []TimelineEvent
}

// TimelineEvent is one Chrome trace event. Phase "i" is an instant,
// "X" a complete span with Dur, "M" metadata (track names), and
// "s"/"t"/"f" are the legacy flow phases (start/step/finish) that link
// events across tracks through a shared ID.
type TimelineEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   float64           `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	ID    string            `json:"id,omitempty"`
	Bind  string            `json:"bp,omitempty"`
	Args  map[string]string `json:"args,omitempty"`

	// seq is the event's position within its track, assigned at record
	// time; Export sorts by (Tid, seq) for engine-independent output.
	seq uint64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{tracks: make(map[int]string), seqs: make(map[int]uint64)}
}

// SetTrack names the track with id track (shown as a thread name).
func (t *Timeline) SetTrack(track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracks[track] = name
	t.mu.Unlock()
}

func argsOf(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd timeline arg list %q", kv))
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// record appends ev with the next sequence number of its track.
func (t *Timeline) record(ev TimelineEvent) {
	t.mu.Lock()
	ev.seq = t.seqs[ev.Tid]
	t.seqs[ev.Tid]++
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Instant records a zero-duration event on a track at virtual time ts,
// with alternating key,value args.
func (t *Timeline) Instant(ts float64, track int, name string, kv ...string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{Name: name, Phase: "i", Ts: ts, Tid: track, Scope: "t", Args: argsOf(kv)})
}

// Span records a complete event of duration dur starting at ts.
func (t *Timeline) Span(ts, dur float64, track int, name string, kv ...string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{Name: name, Phase: "X", Ts: ts, Dur: dur, Tid: track, Args: argsOf(kv)})
}

// FlowBegin starts a causal flow chain with the given id on a track:
// phase "s" in the legacy flow-event encoding. Later FlowStep/FlowEnd
// records with the same id extend the chain across tracks, which is how
// a send on one host links to the deliveries and forced checkpoints it
// causes on others.
func (t *Timeline) FlowBegin(ts float64, track int, name string, id uint64, kv ...string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{Name: name, Phase: "s", Ts: ts, Tid: track,
		ID: strconv.FormatUint(id, 10), Args: argsOf(kv)})
}

// FlowStep records an intermediate point of flow id on a track
// (phase "t").
func (t *Timeline) FlowStep(ts float64, track int, name string, id uint64, kv ...string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{Name: name, Phase: "t", Ts: ts, Tid: track,
		ID: strconv.FormatUint(id, 10), Args: argsOf(kv)})
}

// FlowEnd terminates flow id on a track (phase "f", bound to the
// enclosing slice so viewers attach the arrowhead at ts).
func (t *Timeline) FlowEnd(ts float64, track int, name string, id uint64, kv ...string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{Name: name, Phase: "f", Ts: ts, Tid: track,
		ID: strconv.FormatUint(id, 10), Bind: "e", Args: argsOf(kv)})
}

// Len returns the number of recorded events (0 on a nil timeline).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in canonical
// (track, sequence) order — the order Export writes them in.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := append([]TimelineEvent(nil), t.events...)
	t.mu.Unlock()
	sortEvents(evs)
	return evs
}

// sortEvents orders events canonically: by track id, then by the
// per-track sequence assigned at record time.
func sortEvents(evs []TimelineEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Tid != evs[j].Tid {
			return evs[i].Tid < evs[j].Tid
		}
		return evs[i].seq < evs[j].seq
	})
}

// Export writes the timeline as Chrome trace-event JSON: track-name
// metadata (sorted by track id) followed by the recorded events in
// canonical (track, sequence) order. Deterministic per-track event
// streams export byte-identically regardless of how the emitting
// goroutines interleaved across tracks. It writes in one pass, the bytes
// encoding/json's indenting encoder would write for the object
// {"traceEvents": [...]} (one space per level, HTML-escaped strings), and
// fails on a time that is no JSON number (NaN, ±Inf) as that encoder
// does, though after writing the events before it. It sorts the events in
// place and writes them without a copy, so it holds the timeline's lock
// while it writes to w: a recording meanwhile waits (every world records
// its timeline after its run, so none does).
func (t *Timeline) Export(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString("{\n \"traceEvents\": [")
	var e eventWriter
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		ids := make([]int, 0, len(t.tracks))
		for id := range t.tracks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			e.write(bw, &TimelineEvent{Name: "thread_name", Phase: "M", Tid: id, Args: map[string]string{"name": t.tracks[id]}})
		}
		sortEvents(t.events)
		for i := range t.events {
			if e.err != nil {
				break
			}
			e.write(bw, &t.events[i])
		}
	}
	if e.err != nil {
		return e.err
	}
	if e.n > 0 {
		bw.WriteString("\n ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush()
}

// eventWriter writes the elements of Export's event array: n written so
// far, the first error, and the buffers one event is built in.
type eventWriter struct {
	n    int
	err  error
	b    []byte
	keys []string
}

// write appends ev as the array's next element.
func (e *eventWriter) write(w *bufio.Writer, ev *TimelineEvent) {
	b := e.b[:0]
	if e.n > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n  {\n   \"name\": "...)
	b = appendString(b, ev.Name)
	b = append(b, ",\n   \"ph\": "...)
	b = appendString(b, ev.Phase)
	b = append(b, ",\n   \"ts\": "...)
	b = e.appendFloat(b, ev.Ts)
	if ev.Dur != 0 {
		b = append(b, ",\n   \"dur\": "...)
		b = e.appendFloat(b, ev.Dur)
	}
	b = append(b, ",\n   \"pid\": "...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, ",\n   \"tid\": "...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	for _, f := range [...]struct{ key, v string }{{"s", ev.Scope}, {"id", ev.ID}, {"bp", ev.Bind}} {
		if f.v != "" {
			b = append(b, ",\n   \""...)
			b = append(b, f.key...)
			b = append(b, "\": "...)
			b = appendString(b, f.v)
		}
	}
	if len(ev.Args) > 0 {
		e.keys = e.keys[:0]
		for k := range ev.Args {
			e.keys = append(e.keys, k)
		}
		sort.Strings(e.keys)
		b = append(b, ",\n   \"args\": {"...)
		for i, k := range e.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendString(b, k)
			b = append(b, ": "...)
			b = appendString(b, ev.Args[k])
		}
		b = append(b, "\n   }"...)
	}
	b = append(b, "\n  }"...)
	e.b = b
	if e.err == nil {
		w.Write(b)
		e.n++
	}
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal, in exponent form below 1e-6 and from 1e21 on, a one-digit
// negative exponent unpadded. A NaN or an infinity sets e.err.
func (e *eventWriter) appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.err = fmt.Errorf("obs: timeline time %v is not a JSON number", f)
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: a string of printable ASCII without a quote, backslash or
// HTML metacharacter goes as it is, anything else through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ImportTimeline parses trace-event JSON previously written by Export
// back into a Timeline (metadata events become track names). Arrival
// order re-derives the per-track sequences, so an imported timeline
// re-exports byte-identically.
func ImportTimeline(r io.Reader) (*Timeline, error) {
	var env struct {
		TraceEvents []TimelineEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("obs: bad timeline JSON: %w", err)
	}
	t := NewTimeline()
	for _, ev := range env.TraceEvents {
		if ev.Phase == "M" {
			if ev.Name != "thread_name" {
				return nil, fmt.Errorf("obs: unknown metadata event %q", ev.Name)
			}
			t.tracks[ev.Tid] = ev.Args["name"]
			continue
		}
		ev.seq = t.seqs[ev.Tid]
		t.seqs[ev.Tid]++
		t.events = append(t.events, ev)
	}
	return t, nil
}
