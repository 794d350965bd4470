package sim

import "fmt"

// Audit runs the determinism/ablation audit of cfg over the given seeds:
// for each seed, every configured protocol is evaluated once on the
// shared trace and once alone, and the outcomes must match exactly. A
// mismatch means the trace is no longer protocol-independent — some
// protocol perturbed the execution. It returns the first mismatch (or
// run error) found.
func Audit(cfg Config, seeds []uint64) error {
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		joint, err := Run(c)
		if err != nil {
			return fmt.Errorf("sim: ablation joint run: %w", err)
		}
		for i := range joint.Protocols {
			shared := &joint.Protocols[i]
			c.Protocols = []ProtocolName{shared.Name}
			solo, err := Run(c)
			if err != nil {
				return fmt.Errorf("sim: ablation solo run of %s: %w", shared.Name, err)
			}
			if err := sameOutcome(&solo.Protocols[0], shared); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameOutcome compares the scalar fingerprint of one protocol's solo run
// with its shared-trace evaluation on the same seed — Ntot, Basic, Forced
// and PiggybackBytes — and names the protocol and the first differing
// quantity.
func sameOutcome(solo, shared *ProtocolResult) error {
	for _, q := range []struct {
		name         string
		solo, shared int64
	}{
		{"Ntot", solo.Ntot, shared.Ntot},
		{"Basic", solo.Basic, shared.Basic},
		{"Forced", solo.Forced, shared.Forced},
		{"PiggybackBytes", solo.PiggybackBytes, shared.PiggybackBytes},
	} {
		if q.solo != q.shared {
			return fmt.Errorf("sim: ablation: %s %s = %d solo but %d on the shared trace",
				shared.Name, q.name, q.solo, q.shared)
		}
	}
	return nil
}
