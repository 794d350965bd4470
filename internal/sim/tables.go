package sim

import (
	"fmt"
	"strings"

	"mobickpt/internal/des"
	"mobickpt/internal/stats"
)

// This file is the registry of the committed tables: one entry per
// results/<name>.{txt,csv} pair (TestTableRegistryIsResultsDir holds the
// two sets equal), each with the operating point the committed pair is
// made at and the one function that makes it. `figures -table all
// -seeds 3 -out results` is the whole of `make results`.

// TableSpec is one committed table. Exactly one of render and build is
// set: a table with figures is a pure function of the sums of their
// sweep, which BuildTables runs once for all such tables it is asked for
// (gains next to the six figures costs no run of its own); the others
// make their own runs.
type TableSpec struct {
	Name    string
	horizon des.Time // of the committed pair; a base that sets one overrides it
	figures []FigureSpec
	render  func(specs []FigureSpec, sums [][]*Summary) (*stats.Table, error)
	build   func(base Config, seeds []uint64, workers int) (*stats.Table, error)
}

// Tables returns the registry, in the order `-table all` builds it.
func Tables() []TableSpec {
	paper := DefaultConfig().Horizon
	var reg []TableSpec
	for _, f := range PaperFigures() {
		reg = append(reg, TableSpec{Name: fmt.Sprintf("figure%d", f.ID), horizon: paper, figures: []FigureSpec{f},
			render: func(specs []FigureSpec, sums [][]*Summary) (*stats.Table, error) {
				return figureTable(specs[0], sums[0]), nil
			}})
	}
	return append(reg,
		TableSpec{Name: "gains", horizon: paper, figures: PaperFigures(), render: GainsTable},
		TableSpec{Name: "overhead", horizon: paper, build: OverheadTable},
		TableSpec{Name: "gc", horizon: paper, build: GCTable},
		TableSpec{Name: "contention", horizon: paper, build: ContentionTable},
		TableSpec{Name: "scalability", horizon: paper, build: ScalabilityTable},
		TableSpec{Name: "proxy", horizon: paper, build: ProxyTable},
		TableSpec{Name: "joins", horizon: paper, build: JoinsTable},
		TableSpec{Name: "replay", horizon: TraceHorizon, build: ReplayTable},
		TableSpec{Name: "cause", horizon: paper, build: CauseTable},
		TableSpec{Name: "recovery", horizon: TraceHorizon, build: func(base Config, seeds []uint64, workers int) (*stats.Table, error) {
			base.Workload.PSwitch = 0.8
			return RecoveryTable(base, seeds, workers, 0, nil)
		}},
	)
}

// ParseTables resolves a `-table` value: a comma-separated list of
// registry names, "all" for every entry, or "" for the six figures. An
// unknown name is an error that lists the valid ones; so is a name given
// twice, which would write one file pair twice.
func ParseTables(spec string) ([]TableSpec, error) {
	reg := Tables()
	switch spec {
	case "":
		return reg[:len(PaperFigures())], nil
	case "all":
		return reg, nil
	}
	byName := make(map[string]TableSpec, len(reg))
	names := make([]string, len(reg))
	for i, e := range reg {
		byName[e.Name], names[i] = e, e.Name
	}
	var sel []TableSpec
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		e, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("sim: no table %q (have all, %s)", name, strings.Join(names, ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("sim: table %q named twice", name)
		}
		seen[name] = true
		sel = append(sel, e)
	}
	return sel, nil
}

// at returns base at the entry's horizon, unless base sets one.
func (e TableSpec) at(base Config) Config {
	if base.Horizon == 0 {
		base.Horizon = e.horizon
	}
	return base
}

// sweepFor runs the one sweep behind the selection's figure-derived
// tables — each figure any of them reads, once — and returns, per
// selected table, the sums of its figures (nil for a table that has
// none; no run is made when none has).
func sweepFor(sel []TableSpec, base Config, seeds []uint64, workers int) ([][][]*Summary, error) {
	var specs []FigureSpec
	at := map[int]int{} // figure ID -> index in specs
	for _, e := range sel {
		for _, f := range e.figures {
			if _, ok := at[f.ID]; !ok {
				at[f.ID] = len(specs)
				specs = append(specs, f)
				base = e.at(base) // one horizon: the figure-derived entries share theirs
			}
		}
	}
	out := make([][][]*Summary, len(sel))
	if len(specs) == 0 {
		return out, nil
	}
	sums, err := sweepFigures(specs, base, seeds, workers)
	if err != nil {
		return nil, err
	}
	for i, e := range sel {
		for _, f := range e.figures {
			out[i] = append(out[i], sums[at[f.ID]])
		}
	}
	return out, nil
}

// BuildTables builds the selected tables, in order, every run on
// perSeed's pool of the given size. base.Horizon == 0 selects each
// entry's own horizon — the paper's 100000, TraceHorizon for replay and
// recovery; any other value overrides it for all of them.
func BuildTables(sel []TableSpec, base Config, seeds []uint64, workers int) ([]*stats.Table, error) {
	sums, err := sweepFor(sel, base, seeds, workers)
	if err != nil {
		return nil, err
	}
	tabs := make([]*stats.Table, len(sel))
	for i, e := range sel {
		if e.render != nil {
			tabs[i], err = e.render(e.figures, sums[i])
		} else {
			tabs[i], err = e.build(e.at(base), seeds, workers)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: table %s: %w", e.Name, err)
		}
	}
	return tabs, nil
}

// PlotFigures draws, instead of the selected tables, the figures they
// are computed from as the paper-style log-log ASCII charts; selecting a
// table that is computed from none is an error.
func PlotFigures(sel []TableSpec, base Config, seeds []uint64, workers int) ([]*stats.Plot, error) {
	for _, e := range sel {
		if e.figures == nil {
			return nil, fmt.Errorf("sim: table %s is not computed from a figure: nothing to plot", e.Name)
		}
	}
	sums, err := sweepFor(sel, base, seeds, workers)
	if err != nil {
		return nil, err
	}
	var plots []*stats.Plot
	for i, e := range sel {
		for j, f := range e.figures {
			p, err := figurePlot(f, sums[i][j])
			if err != nil {
				return nil, err
			}
			plots = append(plots, p)
		}
	}
	return plots, nil
}
