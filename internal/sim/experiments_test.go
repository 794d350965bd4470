package sim

import (
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mobickpt/internal/mlog"
)

// benchScale trims the default config to keep the experiment builders
// fast under test while still producing meaningful numbers.
func benchScale() (Config, []uint64) {
	c := DefaultConfig()
	c.Horizon = 3000
	c.Workload.TSwitch = 300
	return c, Seeds(1, 2)
}

func cell(t *testing.T, tab interface {
	Cell(i, j int) string
	NumRows() int
}, i, j int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Cell(i, j), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", i, j, tab.Cell(i, j))
	}
	return v
}

func TestOverheadTable(t *testing.T) {
	base, seeds := benchScale()
	tab, err := OverheadTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != len(AllProtocols()) {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// TP's piggyback dwarfs BCS's (rows follow AllProtocols order).
	if cell(t, tab, 0, 2) <= cell(t, tab, 1, 2) {
		t.Fatal("TP piggyback must exceed BCS's")
	}
	// The coordinated baselines report control messages.
	if cell(t, tab, 4, 3) == 0 {
		t.Fatal("CL reported no control messages")
	}
}

func TestGCTableShowsBoundedStorage(t *testing.T) {
	base, seeds := benchScale()
	tab, err := GCTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.NumRows(); i++ {
		if cell(t, tab, i, 2) == 0 {
			t.Fatalf("row %d: GC reclaimed nothing", i)
		}
		if cell(t, tab, i, 3) >= cell(t, tab, i, 1) {
			t.Fatalf("row %d: peak live not below total", i)
		}
	}
}

func TestContentionTableMonotoneLoad(t *testing.T) {
	base, seeds := benchScale()
	tab, err := ContentionTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	// More load, more total queueing.
	first := cell(t, tab, 0, 2)
	last := cell(t, tab, tab.NumRows()-1, 2)
	if last <= first {
		t.Fatalf("queueing did not grow with load: %v vs %v", first, last)
	}
}

func TestScalabilityTableLinearTP(t *testing.T) {
	base, seeds := benchScale()
	tab, err := ScalabilityTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	// TP piggyback per message is 16 bytes per host: exactly linear.
	for i, n := range []float64{5, 10, 20, 50, 100} {
		if got := cell(t, tab, i, 1); got != 16*n {
			t.Fatalf("TP piggyback at n=%v is %v, want %v", n, got, 16*n)
		}
		if got := cell(t, tab, i, 2); got != 8 {
			t.Fatalf("BCS piggyback at n=%v is %v, want 8", n, got)
		}
	}
}

func TestProxyTableSavesMostForTP(t *testing.T) {
	base, seeds := benchScale()
	tab, err := ProxyTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Row order follows base.Protocols = TP, BCS, QBC.
	if cell(t, tab, 0, 3) <= cell(t, tab, 1, 3) {
		t.Fatal("proxying must save more for TP than for BCS")
	}
}

func TestJoinsTableCosts(t *testing.T) {
	base, seeds := benchScale()
	tab, err := JoinsTable(base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 0, 1) == 0 {
		t.Fatal("TP joins must cost control messages")
	}
	if cell(t, tab, 1, 1) != 0 || cell(t, tab, 2, 1) != 0 {
		t.Fatal("index-protocol joins must be free")
	}
}

func TestGainsTableAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps all six figures")
	}
	base, seeds := benchScale()
	sel, err := ParseTables("gains")
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := BuildTables(sel, base, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	for i := 0; i < 6; i++ {
		if cell(t, tab, i, 1) <= 0 {
			t.Fatalf("figure row %d shows no index-over-TP gain", i)
		}
	}
}

// TestRecoveryTable is E8's own check: without coordination a failure
// dominoes (UNC needs orphan-elimination steps, and ends on the maximal
// line), the index protocols' on-the-fly lines need none, and a logged
// run gains the three replay-aware columns, which never undo more than
// the plain recovery.
func TestRecoveryTable(t *testing.T) {
	base, seeds := benchScale()
	base.Workload.PSwitch = 0.8
	tab, err := RecoveryTable(base, seeds, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 || len(tab.Columns) != 7 {
		t.Fatalf("unlogged table is %d x %d, want 4 x 7", tab.NumRows(), len(tab.Columns))
	}
	const bcs, unc = 1, 3 // rows: TP, BCS, QBC, UNC
	if cell(t, tab, unc, 5) == 0 || cell(t, tab, bcs, 5) != 0 {
		t.Fatalf("domino steps: UNC %v (want > 0), BCS %v (want 0)", cell(t, tab, unc, 5), cell(t, tab, bcs, 5))
	}
	if cell(t, tab, unc, 6) != 0 {
		t.Fatalf("UNC's eliminated line is the maximal one, yet it undoes %v more", cell(t, tab, unc, 6))
	}
	base.MessageLog = mlog.Pessimistic
	logged, err := RecoveryTable(base, seeds, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged.Columns) != 10 {
		t.Fatalf("logged table has %d columns, want 10", len(logged.Columns))
	}
	for i := 0; i < logged.NumRows(); i++ {
		if cell(t, logged, i, 8) > cell(t, logged, i, 2) {
			t.Fatalf("row %d: replay-aware recovery undoes more than the plain one", i)
		}
	}
}

// TestTableRegistryIsResultsDir: the registry is the results directory —
// every committed txt/csv pair has an entry and every entry a committed
// pair (BENCH_scale.json is a measurement, not a table).
func TestTableRegistryIsResultsDir(t *testing.T) {
	var have []string
	for _, e := range Tables() {
		have = append(have, e.Name)
	}
	for _, ext := range []string{".txt", ".csv"} {
		files, err := filepath.Glob("../../results/*" + ext)
		if err != nil {
			t.Fatal(err)
		}
		var committed []string
		for _, f := range files {
			committed = append(committed, strings.TrimSuffix(filepath.Base(f), ext))
		}
		for _, name := range committed {
			if !slices.Contains(have, name) {
				t.Errorf("results/%s%s has no registry entry: nothing regenerates or gates it", name, ext)
			}
		}
		for _, name := range have {
			if !slices.Contains(committed, name) {
				t.Errorf("registry entry %s has no committed results/%s%s", name, name, ext)
			}
		}
	}
}

// TestTablesWorkerInvariant extends TestSweepParallelDeterministic's
// promise from the figures to every registry entry: built on one worker
// and on four, each renders byte-identical txt and csv. Parallelism may
// only change wall-clock time.
func TestTablesWorkerInvariant(t *testing.T) {
	base, seeds := benchScale()
	render := func(workers int) []string {
		tabs, err := BuildTables(Tables(), base, seeds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]string, len(tabs))
		for i, tab := range tabs {
			if tab.NumRows() == 0 {
				t.Fatalf("workers=%d: table %s is empty", workers, Tables()[i].Name)
			}
			out[i] = tab.String() + tab.CSV()
		}
		return out
	}
	want, got := render(1), render(4)
	for i, e := range Tables() {
		if got[i] != want[i] {
			t.Errorf("table %s differs between workers=1 and workers=4:\n--- 1 ---\n%s--- 4 ---\n%s", e.Name, want[i], got[i])
		}
	}
}

func TestParseTables(t *testing.T) {
	names := func(sel []TableSpec) string {
		var ns []string
		for _, e := range sel {
			ns = append(ns, e.Name)
		}
		return strings.Join(ns, ",")
	}
	for spec, want := range map[string]string{
		"":                        "figure1,figure2,figure3,figure4,figure5,figure6",
		"gains,overhead":          "gains,overhead",
		"recovery,figure2,replay": "recovery,figure2,replay",
	} {
		sel, err := ParseTables(spec)
		if err != nil || names(sel) != want {
			t.Errorf("ParseTables(%q) = %s, %v; want %s", spec, names(sel), err, want)
		}
	}
	all, err := ParseTables("all")
	if err != nil || len(all) != 16 || names(all) != names(Tables()) {
		t.Errorf("ParseTables(all) = %s, %v; want the 16 registry entries", names(all), err)
	}
	if _, err := ParseTables("gains,nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) ||
		!strings.Contains(err.Error(), strings.ReplaceAll(names(Tables()), ",", ", ")) {
		t.Errorf("an unknown name must fail listing the valid ones, got %v", err)
	}
	if _, err := ParseTables("gc,overhead,gc"); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("a repeated name must fail, got %v", err)
	}
}

// TestTablesRefuseNoSeeds: a table of no runs is all zeros with nothing
// to say so, which is what `-seeds 0` once printed. The one helper every
// table's runs go through refuses, so every builder does.
func TestTablesRefuseNoSeeds(t *testing.T) {
	base, _ := benchScale()
	if tab, err := OverheadTable(base, nil, 0); err == nil || tab != nil {
		t.Fatalf("OverheadTable without seeds = %v, %v; want an error and no table", tab, err)
	}
	tabs, err := BuildTables(Tables(), base, nil, 0)
	if err == nil || tabs != nil {
		t.Fatalf("BuildTables without seeds: want an error and no tables, got %v", err)
	}
}
