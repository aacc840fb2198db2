package matrix

import (
	"math/rand"
	"testing"

	"parlap/internal/graph"
)

// The batch kernels' contract is bitwise: column c of any batched operation
// must equal the single-vector kernel applied to column c. These tests
// compare with == (no tolerances).

func randCols(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, k)
	for c := range xs {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xs[c] = x
	}
	return xs
}

func randLap(n int, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: rng.Float64() + 0.1})
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: rng.Float64()})
		}
	}
	return LaplacianOf(graph.FromEdges(n, edges))
}

func requireBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %g vs %g", name, i, got[i], want[i])
		}
	}
}

func TestMulVecBatchBitwise(t *testing.T) {
	a := randLap(700, 1)
	for _, k := range []int{1, 2, 5} {
		xs := randCols(a.N, k, 2)
		ys := make([][]float64, k)
		for c := range ys {
			ys[c] = make([]float64, a.N)
		}
		for _, w := range []int{1, 0, 3} {
			a.MulVecBatchW(w, xs, ys)
			for c := 0; c < k; c++ {
				ref := make([]float64, a.N)
				a.MulVecW(1, xs[c], ref)
				requireBitwise(t, "mulvec", ys[c], ref)
			}
		}
	}
}

func TestDotNormBatchBitwise(t *testing.T) {
	n, k := 5000, 4
	xs := randCols(n, k, 3)
	ys := randCols(n, k, 4)
	for _, w := range []int{1, 0, 2} {
		dots := DotBatchW(w, xs, ys)
		norms := Norm2BatchW(w, xs)
		for c := 0; c < k; c++ {
			if dots[c] != DotW(1, xs[c], ys[c]) {
				t.Fatalf("dot column %d differs under workers=%d", c, w)
			}
			if norms[c] != Norm2W(1, xs[c]) {
				t.Fatalf("norm column %d differs under workers=%d", c, w)
			}
		}
	}
}

func TestAxpySubBatchBitwise(t *testing.T) {
	n, k := 4000, 3
	xs := randCols(n, k, 5)
	ys := randCols(n, k, 6)
	alphas := []float64{0.5, -1.25, 3.75}
	dsts := make([][]float64, k)
	diffs := make([][]float64, k)
	for c := range dsts {
		dsts[c] = make([]float64, n)
		diffs[c] = make([]float64, n)
	}
	AxpyBatchW(0, dsts, alphas, xs, ys)
	SubIntoBatchW(0, diffs, xs, ys)
	for c := 0; c < k; c++ {
		ref := make([]float64, n)
		AxpyIntoW(1, ref, alphas[c], xs[c], ys[c])
		requireBitwise(t, "axpy", dsts[c], ref)
		SubIntoW(1, ref, xs[c], ys[c])
		requireBitwise(t, "sub", diffs[c], ref)
	}
}

func TestProjectBatchBitwise(t *testing.T) {
	n, k := 6000, 3
	// Single-component case.
	xs := randCols(n, k, 7)
	refs := CopyVecBatch(xs)
	comp := make([]int, n)
	ProjectOutConstantMaskedBatchW(0, xs, comp, 1)
	for c := 0; c < k; c++ {
		ProjectOutConstantMaskedW(1, refs[c], comp, 1)
		requireBitwise(t, "project-1comp", xs[c], refs[c])
	}
	// Multi-component case.
	for i := range comp {
		comp[i] = i % 4
	}
	xs = randCols(n, k, 8)
	refs = CopyVecBatch(xs)
	ProjectOutConstantMaskedBatchW(2, xs, comp, 4)
	for c := 0; c < k; c++ {
		ProjectOutConstantMaskedW(1, refs[c], comp, 4)
		requireBitwise(t, "project-4comp", xs[c], refs[c])
	}
}
