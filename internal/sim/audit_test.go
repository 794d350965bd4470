package sim

import (
	"strings"
	"testing"

	"mobickpt/internal/des"
)

// The determinism audit's acceptance property: every protocol evaluated
// on the shared trace matches its solo re-simulation exactly — Ntot,
// Basic, Forced and PiggybackBytes — across several seeds.
func TestAblationAuditAllProtocols(t *testing.T) {
	c := testConfig()
	c.Protocols = AllProtocols()
	c.SnapshotPeriod = 50
	c.Checks = true
	if err := Audit(c, Seeds(1, 3)); err != nil {
		t.Fatal(err)
	}
}

// The audit must also hold on the hard configurations: periodic GC,
// dynamic joins (two at the same instant) and a lossy wireless channel
// with retransmissions.
func TestAblationAuditHardConfigs(t *testing.T) {
	c := testConfig()
	c.Protocols = AllProtocols()
	c.SnapshotPeriod = 50
	c.Checks = true
	c.GCInterval = 200
	c.JoinTimes = []des.Time{500, 500, 1500}
	c.Mobile.LossProbability = 0.2
	c.Mobile.RetransmitTimeout = 0.05
	if err := Audit(c, Seeds(2, 3)); err != nil {
		t.Fatal(err)
	}
}

// The invariant checker only observes: a checked run must report the
// same outcomes as an unchecked run of the same seed.
func TestChecksDoNotPerturb(t *testing.T) {
	plain := mustRun(t, testConfig())
	c := testConfig()
	c.Checks = true
	c.RecordTrace = true
	checked := mustRun(t, c)
	for i := range plain.Protocols {
		p, q := &plain.Protocols[i], &checked.Protocols[i]
		if p.Ntot != q.Ntot || p.Forced != q.Forced || p.PiggybackBytes != q.PiggybackBytes {
			t.Fatalf("%s: checked run diverged: Ntot %d vs %d", p.Name, p.Ntot, q.Ntot)
		}
	}
}

// Audit must surface configuration errors instead of reporting success.
func TestAuditPropagatesErrors(t *testing.T) {
	c := testConfig()
	c.Protocols = []ProtocolName{"XX"}
	err := Audit(c, Seeds(1, 1))
	if err == nil {
		t.Fatal("invalid config must fail the audit")
	}
	if !strings.Contains(err.Error(), "joint") {
		t.Fatalf("error does not identify the failing run: %v", err)
	}
}

// The comparison itself, without a simulation: equal outcomes pass, and a
// solo run that drifted in any one quantity is an error naming the
// protocol and that quantity.
func TestSameOutcome(t *testing.T) {
	shared := ProtocolResult{Name: QBC, Ntot: 8, Basic: 7, Forced: 1, PiggybackBytes: 800}
	solo := shared
	if err := sameOutcome(&solo, &shared); err != nil {
		t.Fatalf("matching outcomes rejected: %v", err)
	}
	for _, tc := range []struct {
		quantity string
		drift    func(*ProtocolResult)
	}{
		{"Ntot", func(p *ProtocolResult) { p.Ntot++ }},
		{"Basic", func(p *ProtocolResult) { p.Basic++ }},
		{"Forced", func(p *ProtocolResult) { p.Forced = 2 }},
		{"PiggybackBytes", func(p *ProtocolResult) { p.PiggybackBytes-- }},
	} {
		solo := shared
		tc.drift(&solo)
		err := sameOutcome(&solo, &shared)
		if err == nil {
			t.Fatalf("diverging %s accepted", tc.quantity)
		}
		if !strings.Contains(err.Error(), "QBC") || !strings.Contains(err.Error(), tc.quantity) {
			t.Fatalf("error does not name protocol and quantity %s: %v", tc.quantity, err)
		}
	}
}
