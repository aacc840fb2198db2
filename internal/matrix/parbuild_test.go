package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
)

// naiveFromTriplets is the reference CSR builder: map accumulation in input
// order, which is the order the assembly sums duplicates in — so the
// comparison against it is bitwise.
func naiveFromTriplets(n int, rows, cols []int, vals []float64) map[[2]int]float64 {
	acc := make(map[[2]int]float64)
	for i := range rows {
		acc[[2]int{rows[i], cols[i]}] += vals[i]
	}
	return acc
}

func randomTriplets(n, m int, seed int64) (rows, cols []int, vals []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows = make([]int, m)
	cols = make([]int, m)
	vals = make([]float64, m)
	for i := 0; i < m; i++ {
		rows[i] = rng.Intn(n)
		cols[i] = rng.Intn(n)
		vals[i] = rng.NormFloat64()
	}
	return rows, cols, vals
}

func sameSparse(t *testing.T, a, b *Sparse, label string) {
	t.Helper()
	if a.N != b.N || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: shape mismatch: (%d,%d) vs (%d,%d)", label, a.N, a.NNZ(), b.N, b.NNZ())
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			t.Fatalf("%s: Off[%d] = %d vs %d", label, i, a.Off[i], b.Off[i])
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatalf("%s: Col[%d] = %d vs %d", label, i, a.Col[i], b.Col[i])
		}
		if a.Val[i] != b.Val[i] {
			t.Fatalf("%s: Val[%d] = %v vs %v (not bitwise identical)", label, i, a.Val[i], b.Val[i])
		}
	}
	for i := range a.Diag {
		if a.Diag[i] != b.Diag[i] {
			t.Fatalf("%s: Diag[%d] = %v vs %v", label, i, a.Diag[i], b.Diag[i])
		}
	}
}

func TestNewSparseFromTripletsWorkerEquivalence(t *testing.T) {
	// Sizes straddle par's sequential cutoff so both the inline and the
	// chunked bucket-by-row are exercised; heavy duplication (97 rows) makes
	// every row long enough for the library sort and stresses the run-merge.
	for _, m := range []int{0, 1, 17, 4095, 4096, 4097, 60000} {
		n := 97
		rows, cols, vals := randomTriplets(n, m, int64(m)+1)
		ref, err := NewSparseFromTripletsW(1, n, rows, cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 4, 8} {
			got, err := NewSparseFromTripletsW(w, n, rows, cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			sameSparse(t, ref, got, fmt.Sprintf("m=%d workers=%d", m, w))
		}
		// Against the naive accumulator, bitwise.
		acc := naiveFromTriplets(n, rows, cols, vals)
		nnz := 0
		for r := 0; r < n; r++ {
			for i := ref.Off[r]; i < ref.Off[r+1]; i++ {
				nnz++
				want := acc[[2]int{r, int(ref.Col[i])}]
				if ref.Val[i] != want {
					t.Fatalf("m=%d: entry (%d,%d) = %v, naive %v", m, r, ref.Col[i], ref.Val[i], want)
				}
			}
		}
		if nnz != len(acc) {
			t.Fatalf("m=%d: nnz %d, naive %d", m, nnz, len(acc))
		}
	}
}

func TestNewSparseFromTripletsCSRInvariants(t *testing.T) {
	n := 61
	rows, cols, vals := randomTriplets(n, 30000, 9)
	a, err := NewSparseFromTriplets(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if a.Off[0] != 0 || a.Off[n] != a.NNZ() {
		t.Fatalf("Off endpoints wrong: %d, %d (nnz %d)", a.Off[0], a.Off[n], a.NNZ())
	}
	for r := 0; r < n; r++ {
		if a.Off[r] > a.Off[r+1] {
			t.Fatalf("Off not monotone at %d", r)
		}
		for i := a.Off[r] + 1; i < a.Off[r+1]; i++ {
			if a.Col[i-1] >= a.Col[i] {
				t.Fatalf("row %d: columns not strictly increasing at %d", r, i)
			}
		}
	}
}

func TestNewSparseFromTripletsErrors(t *testing.T) {
	if _, err := NewSparseFromTriplets(4, []int{0}, []int{0, 1}, []float64{1}); err == nil {
		t.Fatal("mismatched slice lengths not rejected")
	}
	// Out-of-range detection must fire on the parallel path too: put the
	// bad triplet deep inside a large batch.
	m := 20000
	rows, cols, vals := randomTriplets(10, m, 11)
	rows[m-3] = 10 // out of range
	for _, w := range []int{1, 4} {
		if _, err := NewSparseFromTripletsW(w, 10, rows, cols, vals); err == nil {
			t.Fatalf("workers=%d: out-of-range triplet not rejected", w)
		}
	}
}

func TestLaplacianOfWorkerEquivalence(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Torus2D(48, 48), 8, 5, 3)
	ref := LaplacianOfW(1, g)
	for _, w := range []int{0, 2, 8} {
		sameSparse(t, ref, LaplacianOfW(w, g), "laplacian")
	}
	// Row sums of a Laplacian vanish.
	ones := make([]float64, g.N)
	for i := range ones {
		ones[i] = 1
	}
	y := ref.Apply(ones)
	for i, v := range y {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("L·1 nonzero at %d: %v", i, v)
		}
	}
}

func TestVectorKernelWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 50000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	dotRef := DotW(1, x, y)
	normRef := Norm2W(1, x)
	for _, w := range []int{0, 2, 4, 8} {
		if d := DotW(w, x, y); d != dotRef {
			t.Fatalf("workers=%d: Dot %v != %v (bitwise)", w, d, dotRef)
		}
		if nn := Norm2W(w, x); nn != normRef {
			t.Fatalf("workers=%d: Norm2 %v != %v (bitwise)", w, nn, normRef)
		}
		dst1 := make([]float64, n)
		dstW := make([]float64, n)
		AxpyIntoW(1, dst1, 1.5, x, y)
		AxpyIntoW(w, dstW, 1.5, x, y)
		for i := range dst1 {
			if dst1[i] != dstW[i] {
				t.Fatalf("workers=%d: Axpy diverges at %d", w, i)
			}
		}
		a1 := append([]float64(nil), x...)
		aw := append([]float64(nil), x...)
		ProjectOutConstantW(1, a1)
		ProjectOutConstantW(w, aw)
		for i := range a1 {
			if a1[i] != aw[i] {
				t.Fatalf("workers=%d: projection diverges at %d", w, i)
			}
		}
	}
}
