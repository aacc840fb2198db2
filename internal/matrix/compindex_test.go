package matrix

import (
	"math/rand"
	"testing"
)

// The masked projection is the last per-iteration kernel that touched
// components with a scalar loop; these tests pin the segmented-reduction
// replacement: the index layout, worker-count bitwise equivalence (case (c)
// of the sequential-bottleneck list), and batch-vs-single column parity.

func randomPartition(rng *rand.Rand, n, numComp int) []int {
	comp := make([]int, n)
	for i := range comp {
		comp[i] = rng.Intn(numComp)
	}
	// Guarantee every component non-empty (ConnectedComponents-style labels).
	for c := 0; c < numComp && c < n; c++ {
		comp[c] = c
	}
	return comp
}

func TestCompIndexLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 5000} {
		for _, k := range []int{1, 2, 5} {
			comp := randomPartition(rng, n, k)
			ci := NewCompIndexW(0, comp, k)
			if ci.NumComp != k || ci.SegOff[len(ci.SegOff)-1] != n {
				t.Fatalf("n=%d k=%d: bad index shape", n, k)
			}
			if k == 1 {
				continue // single-component index skips the pack by design
			}
			seen := make([]bool, n)
			for c := 0; c < k; c++ {
				for i := ci.SegOff[c]; i < ci.SegOff[c+1]; i++ {
					v := ci.Order[i]
					if comp[v] != c {
						t.Fatalf("vertex %d in segment %d but comp=%d", v, c, comp[v])
					}
					if seen[v] {
						t.Fatalf("vertex %d appears twice", v)
					}
					seen[v] = true
					if i > ci.SegOff[c] && ci.Order[i] <= ci.Order[i-1] {
						t.Fatalf("segment %d not in ascending vertex order at %d", c, i)
					}
				}
			}
			for v, ok := range seen {
				if !ok {
					t.Fatalf("vertex %d missing from index", v)
				}
			}
		}
	}
}

func TestProjectOutConstantMaskedWorkerBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 300, 9000} {
		for _, k := range []int{1, 2, 4, 17} {
			if k > n {
				continue
			}
			comp := randomPartition(rng, n, k)
			base := make([]float64, n)
			for i := range base {
				// Nonzero per-component means: the exact case the masked
				// projection exists for.
				base[i] = rng.NormFloat64() + float64(comp[i]*3)
			}
			ref := append([]float64(nil), base...)
			ProjectOutConstantMaskedW(1, ref, comp, k)
			// Means are actually removed.
			sums := make([]float64, k)
			cnt := make([]int, k)
			for i, c := range comp {
				sums[c] += ref[i]
				cnt[c]++
			}
			for c := range sums {
				if cnt[c] > 0 && abs64(sums[c])/float64(cnt[c]) > 1e-12 {
					t.Fatalf("n=%d k=%d: component %d mean %.3e not removed", n, k, c, sums[c]/float64(cnt[c]))
				}
			}
			for _, w := range []int{0, 2, 3, 8} {
				got := append([]float64(nil), base...)
				ProjectOutConstantMaskedW(w, got, comp, k)
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("n=%d k=%d workers=%d: entry %d %.17g != %.17g", n, k, w, i, got[i], ref[i])
					}
				}
			}
			// Cached-index form must agree with the on-the-fly form bitwise.
			ci := NewCompIndexW(0, comp, k)
			got := append([]float64(nil), base...)
			ProjectOutConstantMaskedIdxW(3, got, ci)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("n=%d k=%d: Idx form diverges at %d", n, k, i)
				}
			}
		}
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
