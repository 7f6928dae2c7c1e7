// Fixture proving the determinism contract extends to streaming ingest:
// the per-object windows live in maps, and folding them in map order is
// exactly the bug the analyzer exists to catch, because crash replay must
// rebuild the windows — and re-mine the top-k — bit-identically.
package ingest

import (
	"sort"
	"time"
)

// applyTimed reads the wall clock to stamp a window apply: forbidden, the
// pipeline threads an obs.Timer instead.
func applyTimed() int64 {
	return time.Now().UnixNano() // want `time.Now in deterministic package ingest`
}

// objectUnion collects object IDs straight out of per-segment window
// maps without sorting: the union's order — and with it the replayed
// dataset's trajectory order — would vary run to run.
func objectUnion(memos []map[string]float64) []string {
	var keys []string
	for _, memo := range memos {
		for k := range memo { // want `slice keys built from map iteration is never sorted in this block`
			keys = append(keys, k)
		}
	}
	return keys
}

// objectUnionSorted sorts each map's keys in the same block that
// collects them, before folding them into the union: good. (The sort must
// sit in the block of the map range itself — a sort after the outer loop
// is outside the analyzer's block-local proof.)
func objectUnionSorted(memos []map[string]float64) []string {
	var keys []string
	seen := map[string]bool{}
	for _, memo := range memos {
		ks := make([]string, 0, len(memo))
		for k := range memo {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// sumWeights accumulates per-object float weights in map order: float
// addition does not commute bit-exactly, so the total would wobble.
func sumWeights(memo map[string]float64) float64 {
	var total float64
	for _, nm := range memo {
		total += nm // want `floating-point accumulation into total in map-iteration order`
	}
	return total
}

// sumWeightsSorted walks the objects in fixed key order: good.
func sumWeightsSorted(memo map[string]float64, keys []string) float64 {
	var total float64
	for _, k := range keys {
		total += memo[k]
	}
	return total
}
