// Package obs is the unified observability layer of the codebase: a
// low-overhead metrics registry (atomic counters, sampled gauges, fixed-bucket
// histograms with a Prometheus-text exporter), a per-host timeline tracer
// emitting Chrome trace-event JSON (loadable in Perfetto), and profiling
// hooks for the CLIs and the live cluster.
//
// Everything is opt-in and nil-safe: a nil *Registry hands out nil
// instruments, and every instrument method on a nil receiver is a no-op.
// Engines therefore keep unconditional instrument calls on their hot
// paths; with observability disabled the cost is one predictable nil
// check per call (the obs.*_overhead_ratio rows of `go run ./bench`
// price the enabled paths against it).
//
// The registry is safe for concurrent use (the live cluster increments
// counters from many goroutines and a pprof/metrics HTTP endpoint may
// snapshot while the run is in flight). The discrete-event engines are
// single-threaded, so for them the atomics are uncontended.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// labelsOf turns an alternating key,value list into a sorted label set.
func labelsOf(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// metricID renders the registry key of one instrument: name plus the
// sorted label pairs, separated by characters that cannot appear in
// metric names.
func metricID(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0x1f)
		b.WriteString(l.Key)
		b.WriteByte(0x1e)
		b.WriteString(l.Value)
	}
	return b.String()
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter discards all updates.
type Counter struct {
	v      atomic.Int64
	name   string
	labels []Label
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram: Bounds[i] is the inclusive
// upper bound of bucket i, with an implicit +Inf bucket at the end.
// Observations, the running sum and the count are all atomic. A nil
// *Histogram discards observations.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	name    string
	labels  []Label
}

// Observe records one value. The bucket search is an inlined binary
// search — sort.SearchFloat64s costs an extra call and closure per
// observation, which is measurable once million-host runs observe on the
// per-event path (TestHistogramObserveZeroAlloc guards the allocations,
// bench's obs.histogram_observe_ns the time).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n upper bounds starting at start and growing by
// factor: start, start*factor, ... (the usual latency/depth ladder).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n <= 0 {
		panic("obs: LinearBuckets needs width > 0, n > 0")
	}
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start + width*float64(i)
	}
	return bs
}

// sampled is a callback instrument read at snapshot time: it costs
// nothing on the hot path and lets existing tally structs (mlog.Counters,
// live.Counters, runtime stats) surface without double accounting.
type sampled struct {
	name    string
	labels  []Label
	fn      func() int64
	counter bool // exported as counter (monotonic) vs gauge
}

// Registry owns a process's instruments. A nil *Registry hands out nil
// instruments, making the disabled path free of allocations and atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	funcs    map[string]*sampled
	help     map[string]string // metric name -> # HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]*sampled),
		help:     make(map[string]string),
	}
}

// Help registers the # HELP text for a metric name (all label
// combinations of the name share it, as Prometheus requires). Metrics
// without registered help get a text derived from the name, so every
// exposed family carries a HELP line. No-op on a nil registry.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Counter returns (registering on first use) the counter with the given
// name and alternating key,value labels. Returns nil on a nil registry.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := labelsOf(kv)
	id := metricID(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[id]
	if c == nil {
		c = &Counter{name: name, labels: ls}
		r.counters[id] = c
	}
	return c
}

// Histogram returns (registering on first use) the histogram with the
// given name, upper bounds and labels. bounds must be strictly
// increasing. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not increasing at %d", name, i))
		}
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bound", name))
	}
	ls := labelsOf(kv)
	id := metricID(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[id]
	if h == nil {
		h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
			name:    name,
			labels:  ls,
		}
		r.hists[id] = h
	}
	return h
}

// CounterFunc registers a monotonic value sampled at snapshot time.
// Re-registering the same name+labels replaces the callback. fn must be
// safe to call from the snapshotting goroutine.
func (r *Registry) CounterFunc(name string, fn func() int64, kv ...string) {
	r.registerFunc(name, fn, true, kv)
}

// GaugeFunc registers an instantaneous value sampled at snapshot time.
// Re-registering the same name+labels replaces the callback. fn must be
// safe to call from the snapshotting goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64, kv ...string) {
	r.registerFunc(name, fn, false, kv)
}

// Locked wraps a sample func so it reads under mu — for tallies a running
// system mutates under its own lock while a scraper snapshots. A nil mu
// returns read itself.
func Locked(mu sync.Locker, read func() int64) func() int64 {
	if mu == nil {
		return read
	}
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return read()
	}
}

func (r *Registry) registerFunc(name string, fn func() int64, counter bool, kv []string) {
	if r == nil {
		return
	}
	if fn == nil {
		panic("obs: nil sample func for " + name)
	}
	ls := labelsOf(kv)
	id := metricID(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[id] = &sampled{name: name, labels: ls, fn: fn, counter: counter}
}

// Sample is one exported counter or gauge value.
type Sample struct {
	Name   string
	Labels []Label
	Value  int64
}

// HistogramSample is one exported histogram: cumulative bucket counts
// (Counts[i] = observations <= Bounds[i]; the final implicit +Inf bucket
// equals Count), the running sum and the observation count.
type HistogramSample struct {
	Name   string
	Labels []Label
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot is a point-in-time copy of every registered instrument,
// deterministically ordered by (name, labels).
type Snapshot struct {
	Counters   []Sample
	Gauges     []Sample
	Histograms []HistogramSample
	// Help maps metric names to their registered # HELP text. Names
	// without an entry get a derived text at exposition time.
	Help map[string]string
}

// Snapshot captures every instrument. Callback instruments are sampled
// here. The result is deterministic given deterministic instrument
// contents. Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	// The intermediate slices below are collected in map order on
	// purpose: they only stage instrument pointers, and the derived
	// Sample slices are sorted by (name, labels) before the snapshot is
	// returned, so nothing order-dependent escapes.
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	funcs := make([]*sampled, 0, len(r.funcs))
	for _, f := range r.funcs {
		funcs = append(funcs, f)
	}
	if len(r.help) > 0 {
		s.Help = make(map[string]string, len(r.help))
		for k, v := range r.help {
			s.Help[k] = v
		}
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, Sample{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	for _, f := range funcs {
		sm := Sample{Name: f.name, Labels: f.labels, Value: f.fn()}
		if f.counter {
			s.Counters = append(s.Counters, sm)
		} else {
			s.Gauges = append(s.Gauges, sm)
		}
	}
	for _, h := range hists {
		hs := HistogramSample{
			Name:   h.name,
			Labels: h.labels,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.bounds)+1),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			hs.Counts[i] = cum
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sortSamples(s.Counters)
	sortSamples(s.Gauges)
	sort.Slice(s.Histograms, func(i, j int) bool {
		a, b := &s.Histograms[i], &s.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return metricID("", a.Labels) < metricID("", b.Labels)
	})
	return s
}

func sortSamples(ss []Sample) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Name != ss[j].Name {
			return ss[i].Name < ss[j].Name
		}
		return metricID("", ss[i].Labels) < metricID("", ss[j].Labels)
	})
}

// Get returns the snapshotted counter or gauge value for name with the
// given alternating key,value labels, and whether it was found.
func (s Snapshot) Get(name string, kv ...string) (int64, bool) {
	want := metricID(name, labelsOf(kv))
	for _, c := range s.Counters {
		if metricID(c.Name, c.Labels) == want {
			return c.Value, true
		}
	}
	for _, g := range s.Gauges {
		if metricID(g.Name, g.Labels) == want {
			return g.Value, true
		}
	}
	return 0, false
}
