package check

import (
	"fmt"

	"mobickpt/internal/mobile"
	"mobickpt/internal/recovery"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
)

// RecoveryLines verifies the recovery-line theorem of the index-based
// protocols against a recorded execution: for every index x in
// [minIndex, max index in store], the same-index cut (each host's first
// live checkpoint with index >= x) must be a consistent global state —
// zero orphan messages in the trace.
//
// minIndex exists for garbage-collected stores: lines strictly below the
// GC frontier (recovery.StableIndex) lost members by design and are not
// required to be consistent; pass 0 when no pruning ran.
func RecoveryLines(proto string, store *storage.Store, tr *trace.Trace, n, minIndex int) Violations {
	maxIndex := -1
	for h := 0; h < n; h++ {
		for _, rec := range store.Chain(mobile.HostID(h)) {
			if int(rec.Index) > maxIndex {
				maxIndex = int(rec.Index)
			}
		}
	}
	var vs Violations
	for x := minIndex; x <= maxIndex; x++ {
		cut := recovery.IndexCut(store, n, x)
		if orphans := recovery.Orphans(tr, cut); orphans != 0 {
			vs = append(vs, &Violation{
				Protocol: proto, Rule: "recovery-line",
				Detail: fmt.Sprintf("index cut %d has %d orphan message(s)", x, orphans),
			})
			if len(vs) >= maxViolations {
				break
			}
		}
	}
	return vs
}
