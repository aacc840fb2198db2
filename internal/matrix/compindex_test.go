package matrix

import (
	"fmt"
	"math/rand"
	"testing"

	"parlap/internal/par"
)

// The masked projection folds each component's run of the component-sorted
// order in place; these tests pin the index layout, worker-count bitwise
// equivalence, and agreement with the single-component tree when one
// component holds every vertex.

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

// TestProjectOutConstantMaskedWorkerBitwise checks that the means are
// removed and that the bits do not depend on Workers. With one component the
// worker loop exercises ProjectOutConstantW's parallel MeanW tree; with
// several the projection itself is sequential at every worker count, so the
// loop only checks that the index packed at each worker count projects the
// same. The per-component summation order is held by TestProjectBatchBitwise
// and the two-component digests.
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
			ProjectOutConstantMaskedIdxW(1, ref, NewCompIndexW(0, comp, k))
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
				ProjectOutConstantMaskedIdxW(w, got, NewCompIndexW(w, comp, k))
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("n=%d k=%d workers=%d: entry %d %.17g != %.17g", n, k, w, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestProjectMaskedFullComponentMatchesMean checks the multi-component fold
// against the single-component tree: when one component holds every vertex
// (the others empty) its run of the order is the identity and its pieces
// are MeanW's chunks, so the projection must equal ProjectOutConstantW at
// width 1 and projectOutMean2/4 at widths 2 and 4, bit for bit, at sizes
// below, at and across the reduction grain.
func TestProjectMaskedFullComponentMatchesMean(t *testing.T) {
	for _, n := range []int{1, 7, par.ReduceGrain, 2*par.ReduceGrain + 31} {
		comp := make([]int, n)
		for i := range comp {
			comp[i] = 1 // components 0 and 2 are empty
		}
		multi, one := NewCompIndexW(0, comp, 3), NewCompIndexW(0, make([]int, n), 1)
		for _, k := range blockTestWidths {
			xs := randCols(n, k, int64(n+k))
			for c, col := range xs {
				for i := range col {
					col[i] += 3 + float64(c)
				}
			}
			got, want := blockFromCols(xs), blockFromCols(xs)
			ProjectOutConstantMaskedBlockIdxW(1, got, multi)
			ProjectOutConstantMaskedBlockIdxW(1, want, one)
			requireBitwise(t, fmt.Sprintf("n=%d k=%d", n, k), got.Data(), want.Data())
		}
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
