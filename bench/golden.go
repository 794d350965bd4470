package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Golden is the committed simulated outcome of one workload on one seed:
// the statistics a change meant only to make the simulator faster must
// leave identical, and for paper-figures the figure tables themselves.
type Golden struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Smoke    bool        `json:"smoke,omitempty"`
	Stats    *SimStats   `json:"stats,omitempty"`
	Tables   []TableText `json:"tables,omitempty"`
}

//go:embed golden/*.json
var goldenFS embed.FS

func goldenName(workload string, smoke bool, seed uint64) string {
	if smoke {
		return fmt.Sprintf("%s.smoke.seed%d.json", workload, seed)
	}
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// goldenSource looks up the golden outcome for (workload, size, seed);
// ok is false where none is committed.
type goldenSource func(workload string, smoke bool, seed uint64) (g *Golden, ok bool, err error)

func embeddedGolden(workload string, smoke bool, seed uint64) (*Golden, bool, error) {
	raw, err := goldenFS.ReadFile("golden/" + goldenName(workload, smoke, seed))
	if err != nil {
		return nil, false, nil // no golden committed for this seed
	}
	g := &Golden{}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, false, fmt.Errorf("golden %s: %w", goldenName(workload, smoke, seed), err)
	}
	return g, true, nil
}

// diff lists how a rep's simulated outcome departs from the golden one.
func (g *Golden) diff(r *Result) []string {
	var out []string
	switch {
	case g.Stats == nil:
	case r.Stats == nil:
		out = append(out, "no simulated statistics to compare")
	case !g.Stats.gated(*r.Stats):
		out = append(out, fmt.Sprintf("simulated statistics differ: got %+v, want %+v", *r.Stats, *g.Stats))
	}
	if len(g.Tables) != len(r.Tables) {
		return append(out, fmt.Sprintf("%d tables, want %d", len(r.Tables), len(g.Tables)))
	}
	for i, t := range g.Tables {
		if r.Tables[i] != t {
			out = append(out, fmt.Sprintf("%s differs from the committed table:\n%s", t.Name, r.Tables[i].Txt))
		}
	}
	return out
}

func writeGolden(dir string, g *Golden) error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(g.Workload, g.Smoke, g.Seed)), append(raw, '\n'), 0o644)
}
