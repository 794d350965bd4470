package sim

import (
	"fmt"
	"strings"
	"testing"

	"mobickpt/internal/live"
	"mobickpt/internal/protocol"
)

// TestProtocolRegistry holds the three readers of the registry to one
// table: every selectable name resolves to a constructor, the live
// factory accepts exactly the protocols that are not Coordinated and
// says why it refuses the others, the simulator demands a SnapshotPeriod
// for exactly the Coordinated set, a schedule replays for every
// protocol, the protocols whose
// recovery lines are index cuts — the only ones any garbage collector may
// touch — are exactly BCS, QBC and MS, and unknown names are errors
// everywhere.
func TestProtocolRegistry(t *testing.T) {
	// The registry pins this same order (TestRegistryBuildsWhatItNames),
	// so the two lists cannot drift apart unnoticed.
	if got, want := fmt.Sprint(AllProtocols()), "[TP BCS QBC UNC CL PS MS]"; got != want {
		t.Fatalf("AllProtocols() = %s, want %s", got, want)
	}
	var indexed []ProtocolName
	for _, name := range AllProtocols() {
		ent, ok := protocol.Lookup(string(name))
		if !ok || ent.New == nil || ent.Name != string(name) {
			t.Fatalf("%s: registry entry %+v, found %v", name, ent, ok)
		}
		if got := protocol.IndexBased(string(name)); got != ent.IndexBased {
			t.Errorf("%s: protocol.IndexBased = %v, registry says IndexBased = %v", name, got, ent.IndexBased)
		}
		if ent.IndexBased {
			indexed = append(indexed, name)
		}
		if _, err := live.Factory(string(name)); (err != nil) != ent.Coordinated {
			t.Errorf("%s: live.Factory err = %v, registry says Coordinated = %v", name, err, ent.Coordinated)
		} else if err != nil && !strings.Contains(err.Error(), "no clock") {
			t.Errorf("%s: live.Factory err = %v, want the missing clock named", name, err)
		}
		cfg := DefaultConfig()
		cfg.Protocols = []ProtocolName{name}
		cfg.SnapshotPeriod = 0
		if err := cfg.Validate(); (err != nil) != ent.Coordinated {
			t.Errorf("%s: Validate without SnapshotPeriod: %v, registry says Coordinated = %v", name, err, ent.Coordinated)
		}
		replay := Config{Schedule: replaySchedule(string(name))}
		if err := replay.Validate(); err != nil {
			t.Errorf("%s: replay Validate: %v", name, err)
		}
	}
	if got, want := fmt.Sprint(indexed), "[BCS QBC MS]"; got != want {
		t.Errorf("index-based protocols = %s, want %s", got, want)
	}
	if protocol.IndexBased("XX") {
		t.Error("an unknown protocol counts as index-based")
	}
	if _, ok := protocol.Lookup("XX"); ok {
		t.Error("registry resolves an unknown name")
	}
	if _, err := live.Factory("XX"); err == nil {
		t.Error("live.Factory accepts an unknown name")
	}
	cfg := DefaultConfig()
	cfg.Protocols = []ProtocolName{"XX"}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepts an unknown protocol")
	}
}
