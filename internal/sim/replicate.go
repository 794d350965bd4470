package sim

import (
	"fmt"

	"mobickpt/internal/stats"
)

// Replicated summarizes one protocol across independently seeded runs of
// the same configuration, following the paper's methodology ("we did
// several simulation runs with different seeds and the results were
// within 4% of each other").
type Replicated struct {
	Name ProtocolName
	Ntot stats.Replication
}

// Summary is the outcome of a replication set.
type Summary struct {
	Config    Config
	Seeds     []uint64
	Protocols []Replicated
}

// Protocol returns the replicated result for name, or nil.
func (s *Summary) Protocol(name ProtocolName) *Replicated {
	for i := range s.Protocols {
		if s.Protocols[i].Name == name {
			return &s.Protocols[i]
		}
	}
	return nil
}

// runSim is the run entry point used by the replication drivers; a
// package variable so tests can inject per-seed failures (Run itself
// only errors on seed-independent configuration problems).
var runSim = Run

// Replicate runs cfg once per seed and aggregates N_tot per protocol.
func Replicate(cfg Config, seeds []uint64) (*Summary, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: Replicate needs at least one seed")
	}
	sum := &Summary{Config: cfg, Seeds: seeds}
	sum.Protocols = make([]Replicated, len(cfg.Protocols))
	for i, p := range cfg.Protocols {
		sum.Protocols[i].Name = p
	}
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := runSim(c)
		if err != nil {
			return nil, err
		}
		for i := range res.Protocols {
			sum.Protocols[i].Ntot.Add(float64(res.Protocols[i].Ntot))
		}
	}
	return sum, nil
}

// Seeds returns n deterministic replication seeds derived from base.
// n must be >= 0 (a negative count panics in make); a command checks its
// flag first, and every table builder refuses the empty list n = 0 gives.
func Seeds(base uint64, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = base + uint64(i)*1_000_003 // spaced primes avoid accidental reuse
	}
	return s
}
