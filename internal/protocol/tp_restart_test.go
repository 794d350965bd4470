package protocol

import (
	"fmt"
	"slices"
	"testing"
)

// restartRef is the rule a host's log restarted by before logged counted
// first: append the records of the known entries until one more would
// fill more than half the new array, then throw them away for a frame.
func restartRef(vec []int32) (frame []int32, log []tpChange) {
	w := len(vec)
	log = make([]tpChange, 0, w)
	for j, x := range vec {
		if x < 0 {
			continue
		}
		if len(log) == w/2 {
			return slices.Clone(vec), log[:0]
		}
		log = append(log, tpChange{int32(j), x})
	}
	return nil, log
}

// TestTPLogRestart: a merge whose raises overflow a host's log restarts
// it in the same form, record for record, as the old append-then-discard
// rule, on every pattern of known entries at widths 1 to 8 — at most half
// known (records), more than half (a frame) — with the full log array as
// wide as the vectors, and one narrower, as after a join.
func TestTPLogRestart(t *testing.T) {
	forms := map[string]int{}
	for w := 1; w <= 8; w++ {
		for joined := range 2 {
			for mask := 1; mask < 1<<w; mask++ {
				vec := make([]int32, w)
				for j := range vec {
					vec[j] = -1
					if mask>>j&1 == 1 {
						vec[j] = int32(3*j + 1)
					}
				}
				width := w - joined
				if width == 0 {
					continue
				}
				s := &tpHost{vec: vec, log: make([]tpChange, width)}
				s.logged(1) // one raise into a full array: a restart
				frame, log := restartRef(vec)
				name := fmt.Sprintf("width %d, array %d, known %b", w, width, mask)
				if (s.frame == nil) != (frame == nil) || !slices.Equal(s.frame, frame) {
					t.Fatalf("%s: frame %v, want %v", name, s.frame, frame)
				}
				if !slices.Equal(s.log, log) || cap(s.log) != cap(log) {
					t.Fatalf("%s: log %v of %d, want %v of %d", name, s.log, cap(s.log), log, cap(log))
				}
				form := "records"
				if frame != nil {
					form = "frame"
				}
				forms[fmt.Sprint(form, joined)]++
			}
		}
	}
	for _, form := range []string{"records0", "frame0", "records1", "frame1"} {
		if forms[form] == 0 {
			t.Errorf("no restart in form %s", form)
		}
	}
}
