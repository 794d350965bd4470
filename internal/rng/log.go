package rng

import "math"

// The constants of Go's amd64 math.Log ($GOROOT/src/math/log_amd64.s,
// after FreeBSD's e_log.c): √2/2, ln 2 split into a high and a low part,
// and the coefficients of the polynomial R(s) that approximates
// ln((1+s)/(1-s)) - 2s (the derivation is in $GOROOT/src/math/log.go).
const (
	hSqrt2 = 7.07106781186547524401e-01
	ln2Hi  = 6.93147180369123816490e-01
	ln2Lo  = 1.90821492927058770002e-10
	l1     = 6.666666666666735130e-01
	l2     = 3.999999999940941908e-01
	l3     = 2.857142874366239149e-01
	l4     = 2.222219843214978396e-01
	l5     = 1.818357216161805012e-01
	l6     = 1.531383769920937332e-01
	l7     = 1.479819860511658591e-01
)

// logUnit returns ln x for x in (0, 1] (a normal float64), as Go's amd64
// math.Log computes it, operation for operation and without a branch.
// Every product that feeds a sum is rounded by an explicit float64
// conversion, so no GOARCH fuses it into a multiply-add: on arm64
// math.Log is Go code the compiler fuses, and its last bit differs from
// amd64's on about one draw in 600. With this one, the exponential
// variates, and so every event time, are the same bits on every
// architecture. It is kept out of line so the one copy that runs is the
// one `make vet` disassembles for fused instructions.
//
//go:noinline
func logUnit(x float64) float64 {
	// f1, k := math.Frexp(x), f1 in [1/2, 1); if f1 <= √2/2 { f1 *= 2;
	// k-- } — the comparison on the bits (le is 1 when the mantissa is at
	// most √2/2's), the doubling by setting the exponent field's low bit.
	b := math.Float64bits(x)
	m := b&(1<<52-1) | 0x3fe<<52
	le := (m - math.Float64bits(hSqrt2) - 1) >> 63
	k := float64(int64(b>>52) - 0x3fe - int64(le))
	f := math.Float64frombits(m|le<<52) - 1

	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7))))))
	t2 := s4 * (l2 + float64(s4*(l4+float64(s4*l6))))
	r := float64(t1) + float64(t2)
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
