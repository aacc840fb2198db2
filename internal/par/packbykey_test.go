package par

import (
	"math/rand"
	"testing"
)

// PackByKeyW builds the component-sorted order the multi-component
// projection folds over: its layout must be the stable, complete grouping
// by key for every worker count.

func TestPackByKeyWMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 17, SequentialThreshold - 1, 3 * SequentialThreshold, 50000} {
		numKeys := 1 + rng.Intn(37)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(numKeys)
		}
		key := func(i int) int { return keys[i] }
		refOff, refOrder := PackByKeyW(1, n, numKeys, key)
		for _, w := range []int{0, 2, 3, 4, 7} {
			off, order := PackByKeyW(w, n, numKeys, key)
			if len(off) != len(refOff) || len(order) != len(refOrder) {
				t.Fatalf("n=%d workers=%d: shape mismatch", n, w)
			}
			for k := range off {
				if off[k] != refOff[k] {
					t.Fatalf("n=%d workers=%d: off[%d]=%d want %d", n, w, k, off[k], refOff[k])
				}
			}
			for i := range order {
				if order[i] != refOrder[i] {
					t.Fatalf("n=%d workers=%d: order[%d]=%d want %d", n, w, i, order[i], refOrder[i])
				}
			}
		}
		// Stability + completeness: within each key the indices ascend.
		for k := 0; k < numKeys; k++ {
			for i := refOff[k]; i < refOff[k+1]; i++ {
				if keys[refOrder[i]] != k {
					t.Fatalf("order[%d]=%d has key %d, want %d", i, refOrder[i], keys[refOrder[i]], k)
				}
				if i > refOff[k] && refOrder[i] <= refOrder[i-1] {
					t.Fatalf("key %d not stable at %d", k, i)
				}
			}
		}
	}
}
