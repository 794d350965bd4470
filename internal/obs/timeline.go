package obs

import (
	"encoding/json"
	"fmt"
	"io"
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

// timelineEnvelope is the JSON object format of the trace-event spec.
type timelineEnvelope struct {
	TraceEvents []TimelineEvent `json:"traceEvents"`
}

// Export writes the timeline as Chrome trace-event JSON: track-name
// metadata (sorted by track id) followed by the recorded events in
// canonical (track, sequence) order. Deterministic per-track event
// streams export byte-identically regardless of how the emitting
// goroutines interleaved across tracks.
func (t *Timeline) Export(w io.Writer) error {
	env := timelineEnvelope{TraceEvents: []TimelineEvent{}}
	if t != nil {
		t.mu.Lock()
		ids := make([]int, 0, len(t.tracks))
		for id := range t.tracks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			env.TraceEvents = append(env.TraceEvents, TimelineEvent{
				Name:  "thread_name",
				Phase: "M",
				Tid:   id,
				Args:  map[string]string{"name": t.tracks[id]},
			})
		}
		evs := append([]TimelineEvent(nil), t.events...)
		t.mu.Unlock()
		sortEvents(evs)
		env.TraceEvents = append(env.TraceEvents, evs...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(env)
}

// ImportTimeline parses trace-event JSON previously written by Export
// back into a Timeline (metadata events become track names). Arrival
// order re-derives the per-track sequences, so an imported timeline
// re-exports byte-identically.
func ImportTimeline(r io.Reader) (*Timeline, error) {
	var env timelineEnvelope
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
