package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	var m Mean
	for _, v := range []float64{1, 2, 3, 4, 5} {
		m.Add(v)
	}
	if m.N() != 5 {
		t.Fatalf("N = %d", m.N())
	}
	if !almostEqual(m.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %v", m.Mean())
	}
	if !almostEqual(m.Variance(), 2.5, 1e-12) {
		t.Fatalf("variance = %v", m.Variance())
	}
	if !almostEqual(m.Sum(), 15, 1e-9) {
		t.Fatalf("sum = %v", m.Sum())
	}
}

func TestMeanEmptyAndSingle(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Variance() != 0 || m.StdDev() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	m.Add(7)
	if m.Mean() != 7 || m.Variance() != 0 {
		t.Fatalf("single-value accumulator: mean=%v var=%v", m.Mean(), m.Variance())
	}
}

// Near-constant samples stress Welford's m2 with catastrophic
// cancellation; the variance must stay finite and non-negative so
// StdDev and CI95 never go NaN (regression for the clamp in Variance).
func TestMeanNearConstantSamples(t *testing.T) {
	cases := [][]float64{
		{1e15, 1e15, 1e15, 1e15},
		{1e15 + 1, 1e15, 1e15 + 1, 1e15, 1e15 + 1},
		{1e9 + 0.1, 1e9 + 0.1, 1e9 + 0.1},
		{3.14159e12, 3.14159e12, 3.14159e12 + 0.001},
		{-7e14, -7e14, -7e14 - 2, -7e14},
	}
	for i, vals := range cases {
		var m Mean
		var r Replication
		for _, v := range vals {
			m.Add(v)
			r.Add(v)
		}
		if v := m.Variance(); v < 0 || math.IsNaN(v) {
			t.Fatalf("case %d: variance = %v", i, v)
		}
		if s := m.StdDev(); math.IsNaN(s) || s < 0 {
			t.Fatalf("case %d: stddev = %v", i, s)
		}
		if ci := r.CI95(); math.IsNaN(ci) || ci < 0 {
			t.Fatalf("case %d: CI95 = %v", i, ci)
		}
	}
	// The clamp itself: a manually drifted accumulator must not go NaN.
	m := Mean{n: 5, mean: 1e15, m2: -1e-9}
	if m.Variance() != 0 || m.StdDev() != 0 {
		t.Fatalf("negative m2 not clamped: var=%v stddev=%v", m.Variance(), m.StdDev())
	}
}

func TestMeanMatchesDirectComputation(t *testing.T) {
	f := func(vals []float64) bool {
		var m Mean
		sum := 0.0
		ok := true
		for _, v := range vals {
			// Keep values sane so the direct two-pass formula is stable.
			v = math.Mod(v, 1e6)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			m.Add(v)
			sum += v
		}
		if m.N() == 0 {
			return true
		}
		direct := sum / float64(m.N())
		if !almostEqual(m.Mean(), direct, 1e-6*(1+math.Abs(direct))) {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationSummary(t *testing.T) {
	var r Replication
	for _, v := range []float64{98, 100, 102} {
		r.Add(v)
	}
	if r.N() != 3 || r.Min() != 98 || r.Max() != 102 {
		t.Fatalf("summary wrong: n=%d min=%v max=%v", r.N(), r.Min(), r.Max())
	}
	if !almostEqual(r.Mean(), 100, 1e-12) {
		t.Fatalf("mean = %v", r.Mean())
	}
	if !almostEqual(r.RelSpread(), 0.04, 1e-12) {
		t.Fatalf("relspread = %v", r.RelSpread())
	}
	if !almostEqual(r.Median(), 100, 1e-12) {
		t.Fatalf("median = %v", r.Median())
	}
	if r.CI95() <= 0 {
		t.Fatalf("CI95 = %v", r.CI95())
	}
}

func TestReplicationMedianEven(t *testing.T) {
	var r Replication
	for _, v := range []float64{4, 1, 3, 2} {
		r.Add(v)
	}
	if !almostEqual(r.Median(), 2.5, 1e-12) {
		t.Fatalf("median = %v", r.Median())
	}
}

func TestReplicationEmpty(t *testing.T) {
	var r Replication
	if r.Min() != 0 || r.Max() != 0 || r.Median() != 0 || r.RelSpread() != 0 || r.CI95() != 0 {
		t.Fatal("empty replication should return zeros")
	}
}

func TestGain(t *testing.T) {
	if !almostEqual(Gain(100, 10), 0.9, 1e-12) {
		t.Fatalf("Gain(100,10) = %v", Gain(100, 10))
	}
	if !almostEqual(Gain(100, 100), 0, 1e-12) {
		t.Fatal("no gain expected")
	}
	if Gain(0, 5) != 0 {
		t.Fatal("zero base must yield 0")
	}
	if Gain(100, 120) >= 0 {
		t.Fatal("regression must be negative")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Figure 1", "Tswitch", "TP", "BCS", "QBC")
	tab.AddFloatRow("100", 40000, 9000, 8500)
	tab.AddRow("200", "30000", "5000")
	s := tab.String()
	if !strings.Contains(s, "Figure 1") || !strings.Contains(s, "Tswitch") {
		t.Fatalf("missing header in %q", s)
	}
	if !strings.Contains(s, "4e+04") && !strings.Contains(s, "40000") {
		t.Fatalf("missing data in %q", s)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Cell(1, 1) != "30000" || tab.Cell(1, 3) != "" {
		t.Fatalf("cells wrong: %q %q", tab.Cell(1, 1), tab.Cell(1, 3))
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow(`x,"y`, "z")
	csv := tab.CSV()
	want := "a,b\n\"x,\"\"y\",z\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow("1", "2", "3")
	if tab.Cell(0, 0) != "1" {
		t.Fatal("first cell must survive")
	}
	if len(tab.rows[0]) != 1 {
		t.Fatal("extra cells must be dropped")
	}
}

func TestTableCSVQuotesLineBreaks(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("x\ry", "p\nq")
	csv := tab.CSV()
	want := "a,b\n\"x\ry\",\"p\nq\"\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestTableDegenerate(t *testing.T) {
	// No rows: header and separator only, no stray lines.
	tab := NewTable("t", "a", "bb")
	if got, want := tab.String(), "t\na  bb\n-  --\n"; got != want {
		t.Fatalf("empty table = %q, want %q", got, want)
	}
	if got, want := tab.CSV(), "a,bb\n"; got != want {
		t.Fatalf("empty csv = %q, want %q", got, want)
	}
	// NaN means from empty replications render as text, not garbage.
	tab.AddFloatRow("r", math.NaN())
	if !strings.Contains(tab.String(), "NaN") {
		t.Fatalf("NaN cell lost: %q", tab.String())
	}
}
