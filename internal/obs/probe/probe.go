// Package probe holds the engine-internals counters behind the
// observatory: pending-event-set shape (calendar buckets examined,
// in-order insertions, year starts, reallocations), object-pool traffic
// (hit/miss/recycle), and per-lane PDES behaviour (window occupancy,
// mailbox traffic). The structs are plain data on purpose:
//
//   - Writers are single-threaded by construction. Each probe instance
//     is owned by exactly one goroutine at a time — a lane, the
//     sequential engine, or the world-stopped coordinator — so the hot
//     path pays one nil check and an integer increment, no atomics, no
//     allocation.
//   - Readers wait for quiescence. Reports are assembled after Run has
//     returned (goroutine join gives the happens-before edge); metrics
//     funcs registered over probe fields are sampled at Snapshot time,
//     which the engines only reach once the run is done.
//
// A nil probe pointer disables the instrumentation entirely; every
// hook site guards with a nil check so the probe-off path stays within
// the observability overhead budget (bench's obs.probes_overhead_ratio).
package probe

// QueueProbe counts the internals of one pending-event set. The heap
// fills only the generic fields; the calendar queue additionally
// exposes the structural counters behind its large-n behaviour (the
// data explaining the calendar-vs-heap gap measured in E21/E22).
type QueueProbe struct {
	Kind   string `json:"kind"`
	Pushes uint64 `json:"pushes"`
	Pops   uint64 `json:"pops"`
	MaxLen int    `json:"max_len"`
	// Inline counts the steps the set's owner ran in line instead of
	// pushing and popping them (des.Sched.Inline): the events that never
	// touched the set. Pops plus Inline is the events fired, give or take
	// the one pop Run puts back at its horizon.
	Inline uint64 `json:"inline,omitempty"`

	// Calendar internals (equeue.Calendar, the lazy calendar). ChainSteps
	// counts records shifted by in-order insertion into the open bucket —
	// pushes that land at or below the sweep — and MaxChain the most one
	// push shifted; SweepSteps counts buckets examined by the sweep,
	// empty ones and the one it opens alike; DirectScans counts year
	// starts, each of which samples the population and deals the whole
	// overflow; Resizes/Grows/Shrinks count reallocations of the bucket
	// array (a year that fits the array it has reslices it and counts
	// nothing). Buckets/Width record the last year's geometry. The field
	// names predate the lazy calendar — under Brown's chained calendar
	// they counted chain links walked, days swept, all-bucket searches and
	// re-bucketings — and stay because the benchmark reads them by name.
	ChainSteps  uint64  `json:"chain_steps,omitempty"`
	MaxChain    int     `json:"max_chain,omitempty"`
	SweepSteps  uint64  `json:"sweep_steps,omitempty"`
	DirectScans uint64  `json:"direct_scans,omitempty"`
	Resizes     uint64  `json:"resizes,omitempty"`
	Grows       uint64  `json:"grows,omitempty"`
	Shrinks     uint64  `json:"shrinks,omitempty"`
	Buckets     int     `json:"buckets,omitempty"`
	Width       float64 `json:"width,omitempty"`
}

// PoolProbe counts one object pool's traffic: Hits are acquisitions
// served from the free list, Misses fresh allocations, Recycled
// returns to the free list.
type PoolProbe struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Recycled uint64 `json:"recycled"`
}

// Live returns the objects currently outstanding (allocated but not
// recycled); after a drained run it is the permanently retained count.
func (p *PoolProbe) Live() int64 {
	return int64(p.Hits+p.Misses) - int64(p.Recycled)
}

// Merge folds o into p (summing lane shards of one logical pool).
func (p *PoolProbe) Merge(o PoolProbe) {
	p.Hits += o.Hits
	p.Misses += o.Misses
	p.Recycled += o.Recycled
}

// LaneProbe counts one PDES lane's behaviour under the conservative
// driver: Events executed, the Windows in which the lane had any work,
// and the cross-lane arrivals its mailbox took between windows
// (MailboxMsgs in all, MailboxPeak at one barrier).
type LaneProbe struct {
	Events      uint64 `json:"events"`
	Windows     uint64 `json:"windows"`
	MailboxPeak int    `json:"mailbox_peak"`
	MailboxMsgs uint64 `json:"mailbox_msgs"`
}
