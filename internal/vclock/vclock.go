// Package vclock implements the integer dependency vectors used by the
// TP (Acharya–Badrinath) protocol: transitive dependency vectors over
// checkpoint intervals (CKPT[]) and over mobile-host locations (LOC[]).
//
// A dependency vector V of host i satisfies: V[j] is the highest
// checkpoint index of host j that the current state of i (transitively)
// depends on. Vectors are piggybacked on every application message and
// merged component-wise on delivery, exactly as in the paper's §4.1.
//
// Vector is the dense form TP's vectors take in transit: on the wire,
// in TP.Meta and in recovery. The TP protocol keeps its own state as a
// 32-bit CKPT vector plus one station table per host, from which LOC is
// looked up (internal/protocol), and widens to Vector only at that
// boundary.
package vclock

import (
	"fmt"
	"strconv"
)

// Vector is a fixed-width integer dependency vector. The width is the
// number of hosts in the computation (the reason the paper says TP "does
// not scale while changing the number of hosts").
type Vector []int

// New returns a vector of n components initialized to fill.
func New(n, fill int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = fill
	}
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Merge sets each component of v to the maximum of v and o. o may be
// narrower than v (a message sent before new hosts joined the
// computation: the missing entries carry no dependency); a wider o
// panics (a message from the future — a protocol bug).
func (v Vector) Merge(o Vector) {
	if len(o) > len(v) {
		panic(fmt.Sprintf("vclock: merge width mismatch %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// MergeWithLocations merges dependency vector o into v, and wherever a
// component of o dominates, copies the corresponding location from oloc
// into loc. This is TP's paired (CKPT[], LOC[]) update: LOC[j] must always
// record the MSS holding the CKPT[j]-th checkpoint of host j. As with
// Merge, o/oloc may be narrower than v/loc (pre-join messages).
func (v Vector) MergeWithLocations(loc Vector, o, oloc Vector) {
	if len(o) != len(oloc) || len(v) != len(loc) || len(o) > len(v) {
		panic("vclock: paired merge width mismatch")
	}
	for i, x := range o {
		if x > v[i] {
			v[i] = x
			loc[i] = oloc[i]
		}
	}
}

// Grow appends components initialized to fill until v has width n.
func (v Vector) Grow(n, fill int) Vector {
	for len(v) < n {
		v = append(v, fill)
	}
	return v
}

// Dominates reports whether v[i] >= o[i] for every component.
func (v Vector) Dominates(o Vector) bool {
	if len(v) != len(o) {
		panic("vclock: dominates width mismatch")
	}
	for i := range v {
		if v[i] < o[i] {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the vector as "[a b c]".
func (v Vector) String() string {
	b := make([]byte, 0, 2+4*len(v))
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(append(b, ']'))
}
