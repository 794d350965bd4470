package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"mobickpt/internal/race"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("Intn(10) biased: value %d occurred %d times", v, c)
		}
	}
}

func TestIntnOne(t *testing.T) {
	s := New(6)
	for i := 0; i < 100; i++ {
		if v := s.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d, want 0", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(8)
	for _, mean := range []float64{0.5, 1.0, 100.0, 10000.0} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += s.Exp(mean)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.02 {
			t.Fatalf("Exp(%v) sample mean %.4f, want within 2%%", mean, got)
		}
	}
}

func TestExpNonNegative(t *testing.T) {
	s := New(9)
	for i := 0; i < 100000; i++ {
		if v := s.Exp(1); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced invalid variate %v", v)
		}
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

// Exp's logarithm is Go's amd64 math.Log ported: on amd64, where math.Log
// is that assembly, the two agree bit for bit on every argument Exp can
// pass — 1 - u for the 10⁷ draws of a stream, and the edges: 1, the
// smallest, 2⁻⁵³, and both sides of √2/2, where the mantissa's
// comparison flips, at several binades. Elsewhere math.Log is the
// compiler's own build of the Go code, and may differ by one ulp.
func TestExpLogMatchesMathLog(t *testing.T) {
	ulps := 0
	if runtime.GOARCH != "amd64" {
		ulps = 1
	}
	check := func(x float64) {
		t.Helper()
		got, want := logUnit(x), math.Log(x)
		if d := int64(math.Float64bits(got)) - int64(math.Float64bits(want)); d > int64(ulps) || d < -int64(ulps) {
			t.Fatalf("logUnit(%v) = %v (%#x), math.Log = %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edges := []float64{1, math.Nextafter(1, 0), 0x1p-53, 0.5, math.Nextafter(0.5, 1)}
	for _, scale := range []float64{1, 0.5, 0x1p-20, 0x1p-52} {
		for _, x := range []float64{hSqrt2, math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1)} {
			edges = append(edges, x*scale)
		}
	}
	for _, x := range edges {
		check(x)
	}
	n := 10_000_000
	if testing.Short() || race.Enabled {
		n = 100_000
	}
	s := New(11)
	for range n {
		check(1 - s.Float64())
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(10)
	for i := 0; i < 1000; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.4) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.4) > 0.01 {
		t.Fatalf("Bernoulli(0.4) rate %.4f", rate)
	}
}

// TestIntnPinned pins Intn's first 1 000 draws for three seeds and four
// bounds, the last one large enough that Lemire's rejection loop runs
// often: an FNV-1a digest of the draws (each as 8 little-endian bytes)
// and the first three in the clear.
func TestIntnPinned(t *testing.T) {
	cases := []struct {
		seed   uint64
		n      int
		digest uint64
		first  [3]int
	}{
		{0, 2, 0xf89ed671cee48724, [3]int{1, 0, 0}},
		{0, 25, 0x589fc1068318bdec, [3]int{22, 10, 0}},
		{0, 1000003, 0x79d352b6e7e4ca19, [3]int{883313, 431529, 26433}},
		{0, 1<<62 + 1<<61, 0x5a7fdb0b71e80840, [3]int{6110328156246977825, 2985107445822883387, 182856382301829629}},
		{1, 2, 0x4ed1487c09e98be4, [3]int{1, 1, 1}},
		{1, 25, 0x72ddc5818c8926ee, [3]int{14, 18, 24}},
		{1, 1000003, 0x4d80f7d80d7d8679, [3]int{566563, 745783, 971005}},
		{1, 1<<62 + 1<<61, 0xbea4ac75093ffdeb, [3]int{3919206142200308424, 5158966954149910694, 6716939733856083971}},
		{1000004, 2, 0x7ac4c0e87ea43a05, [3]int{0, 0, 1}},
		{1000004, 25, 0xf27306dc0d838b90, [3]int{5, 0, 17}},
		{1000004, 1000003, 0x587bcb6ab23ef365, [3]int{232794, 560, 690416}},
		{1000004, 1<<62 + 1<<61, 0x6ae1c1bf177aa424, [3]int{3877410095996181, 6248510669816314066, 5187425197272515380}},
	}
	for _, c := range cases {
		s := New(c.seed)
		h := fnv.New64a()
		var b [8]byte
		var first [3]int
		for i := range 1000 {
			v := s.Intn(c.n)
			if i < len(first) {
				first[i] = v
			}
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.digest || first != c.first {
			t.Errorf("seed %d, Intn(%d): digest %#x, first %v; want %#x, %v", c.seed, c.n, got, first, c.digest, c.first)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(1.0)
	}
}
