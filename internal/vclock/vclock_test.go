package vclock

import (
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	v := New(3, -1)
	for i, x := range v {
		if x != -1 {
			t.Fatalf("v[%d] = %d", i, x)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := New(3, 0)
	c := v.Clone()
	c[0] = 42
	if v[0] != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestMerge(t *testing.T) {
	v := Vector{1, 5, 3}
	v.Merge(Vector{2, 4, 3})
	want := Vector{2, 5, 3}
	if !v.Equal(want) {
		t.Fatalf("v = %v, want %v", v, want)
	}
}

func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{1}.Merge(Vector{1, 2})
}

func TestMergeWithLocations(t *testing.T) {
	ckpt := Vector{1, 5, 3}
	loc := Vector{10, 11, 12}
	oc := Vector{2, 4, 3}
	ol := Vector{20, 21, 22}
	ckpt.MergeWithLocations(loc, oc, ol)
	if !ckpt.Equal(Vector{2, 5, 3}) {
		t.Fatalf("ckpt = %v", ckpt)
	}
	// Only index 0 was dominated by the incoming vector, so only its
	// location must change.
	if !loc.Equal(Vector{20, 11, 12}) {
		t.Fatalf("loc = %v", loc)
	}
}

func TestMergeWithLocationsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{1, 2}.MergeWithLocations(Vector{1}, Vector{1, 2}, Vector{1, 2})
}

func TestDominates(t *testing.T) {
	a := Vector{2, 2}
	b := Vector{1, 2}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("dominates wrong")
	}
	if !a.Dominates(a) {
		t.Fatal("dominates must be reflexive")
	}
}

func TestEqual(t *testing.T) {
	if !(Vector{1, 2}).Equal(Vector{1, 2}) {
		t.Fatal("equal vectors not equal")
	}
	if (Vector{1, 2}).Equal(Vector{1, 3}) {
		t.Fatal("unequal vectors equal")
	}
	if (Vector{1}).Equal(Vector{1, 2}) {
		t.Fatal("different widths equal")
	}
}

func TestString(t *testing.T) {
	if s := (Vector{1, -1, 3}).String(); s != "[1 -1 3]" {
		t.Fatalf("string = %q", s)
	}
}

// Merge is a join (least upper bound): idempotent, commutative,
// associative, and the result dominates both inputs.
func TestPropertyMergeLaws(t *testing.T) {
	norm := func(raw []int8, n int) Vector {
		v := New(n, 0)
		for i := 0; i < n && i < len(raw); i++ {
			v[i] = int(raw[i])
		}
		return v
	}
	f := func(a8, b8, c8 []int8) bool {
		const n = 5
		a, b, c := norm(a8, n), norm(b8, n), norm(c8, n)

		// Idempotent.
		x := a.Clone()
		x.Merge(a)
		if !x.Equal(a) {
			return false
		}
		// Commutative.
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		// Associative.
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}
		// Upper bound.
		return ab.Dominates(a) && ab.Dominates(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	v := New(64, 0)
	o := New(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Merge(o)
	}
}

func TestMergeNarrower(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Merge(Vector{5}) // a pre-join message: only the old entries
	if !v.Equal(Vector{5, 2, 3}) {
		t.Fatalf("v = %v", v)
	}
}

func TestMergeWiderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{1}.Merge(Vector{1, 2})
}

func TestGrow(t *testing.T) {
	v := Vector{1, 2}
	v = v.Grow(4, -1)
	if !v.Equal(Vector{1, 2, -1, -1}) {
		t.Fatalf("v = %v", v)
	}
	if got := v.Grow(2, 0); !got.Equal(v) {
		t.Fatal("grow to smaller width must be a no-op")
	}
}

func TestMergeWithLocationsNarrower(t *testing.T) {
	ckpt := Vector{1, 2}
	loc := Vector{10, 20}
	ckpt.MergeWithLocations(loc, Vector{5}, Vector{50})
	if !ckpt.Equal(Vector{5, 2}) || !loc.Equal(Vector{50, 20}) {
		t.Fatalf("ckpt=%v loc=%v", ckpt, loc)
	}
}
