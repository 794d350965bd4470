package main

import (
	"encoding/json"
	"sort"
	"time"
)

// Span is one timed call the harness made into a layer. Spans are
// recorded by the harness around calls into exported functions, never
// inside internal/...; they stay in memory and are written at exit.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Rep    int    `json:"rep"`    // child-process ordinal within the run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // wall clock, UnixNano
	End    int64  `json:"end_ns"`
}

// recorder collects the spans of one child process. A nil recorder
// records nothing, so untraced reps pay one nil check per call site.
type recorder struct {
	spans []Span
	stack []int // ids of the open spans, innermost last
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic("bench: spans closed out of order")
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].End = time.Now().UnixNano()
}

// timed runs fn inside a span and returns its wall time in seconds. It is
// the only way the harness times a call, traced or not, so traced and
// untraced reps execute the same harness code.
func (r *recorder) timed(name string, fn func()) float64 {
	id := r.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	r.end(id)
	return d
}

// mergeSpans appends more to all, shifting ids so they stay unique and
// rep ordinals by repOffset (a child numbers its own spans from 1 and
// leaves the rep at 0).
func mergeSpans(all, more []Span, repOffset int) []Span {
	off := len(all)
	for _, s := range more {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		s.Rep += repOffset
		all = append(all, s)
	}
	return all
}

// layerTime is one row of layers.json: how often a span name occurred and
// how its time splits into self time and time covered by child spans.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name; self time is a span's duration
// minus the part of it its direct children cover.
func selfTimes(spans []Span) []layerTime {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(d-covered[s.ID]) / 1e9
	}
	sort.Strings(names)
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// chromeTrace renders spans as Chrome trace-event JSON ("X" complete
// events, one track per rep, microseconds since the first span).
func chromeTrace(spans []Span) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Rep,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}, "", " ")
}
