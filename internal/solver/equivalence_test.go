package solver

import (
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// The equivalence suite locks down the tentpole property of the parallel
// pipeline: the Workers knob changes only the schedule, never the numbers.
// Workers:1 is the sequential reference; every other setting must reproduce
// its reductions bitwise (par's fixed combining trees) and its solves to
// within strict tolerance.

// equivalenceWorkers are the parallel settings compared against Workers:1.
var equivalenceWorkers = []int{0, 2, 4}

// solverGraphs is the cross-topology test matrix: regular mesh, the two
// elimination extremes (path: everything is degree ≤ 2; star: one hub that
// must survive), an expander, and a weighted mesh with a wide conductance
// spread.
func solverGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":           gen.Grid2D(40, 40),
		"path":           gen.Path(1600),
		"star":           gen.Star(1200),
		"random-regular": gen.RandomRegular(700, 4, 7),
		"weighted-grid":  gen.WithExponentialWeights(gen.Grid2D(32, 32), 8, 4, 5),
	}
}

func relDiff(a, b []float64) float64 {
	num, den := 0.0, 1.0
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += a[i] * a[i]
	}
	return math.Sqrt(num / den)
}

func TestSolveWorkerEquivalence(t *testing.T) {
	const eps = 1e-8
	for name, g := range solverGraphs() {
		t.Run(name, func(t *testing.T) {
			b := randRHS(g.N, 11)
			ref, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			xRef, stRef := ref.Solve(b, eps)
			if !stRef.Converged {
				t.Fatalf("sequential reference did not converge: %+v", stRef)
			}
			if r := ref.Residual(xRef, b); r > 10*eps {
				t.Fatalf("sequential residual %.3e exceeds %g", r, 10*eps)
			}
			for _, w := range equivalenceWorkers {
				s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: w}, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				x, st := s.Solve(b, eps)
				if !st.Converged {
					t.Fatalf("workers=%d did not converge: %+v", w, st)
				}
				if st.Iterations != stRef.Iterations {
					t.Errorf("workers=%d: %d iterations, sequential took %d",
						w, st.Iterations, stRef.Iterations)
				}
				if r := s.Residual(x, b); r > 10*eps {
					t.Errorf("workers=%d: residual %.3e exceeds %g", w, r, 10*eps)
				}
				if d := relDiff(xRef, x); d > 1e-10 {
					t.Errorf("workers=%d: solution diverges from sequential by %.3e", w, d)
				}
			}
		})
	}
}

// tridiagSDD returns a strictly diagonally dominant matrix with positive
// off-diagonals — NOT a Laplacian, so NewSDD must take the Gremban
// double-cover path.
func tridiagSDD(t *testing.T, n int) *matrix.Sparse {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		rows = append(rows, i)
		cols = append(cols, i)
		vals = append(vals, 4)
		if i+1 < n {
			rows = append(rows, i, i+1)
			cols = append(cols, i+1, i)
			vals = append(vals, 1, 1)
		}
	}
	a, err := matrix.NewSparseFromTriplets(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.IsLaplacian(a, 1e-9) {
		t.Fatal("test matrix unexpectedly a Laplacian")
	}
	return a
}

func TestSDDGrembanWorkerEquivalence(t *testing.T) {
	const eps = 1e-8
	n := 1200
	a := tridiagSDD(t, n)
	b := randRHS(n, 17)
	ref, err := NewSDDWithOptions(a, DefaultChainParams(), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	xRef, stRef := ref.Solve(b, eps)
	if !stRef.Converged {
		t.Fatalf("sequential Gremban solve did not converge: %+v", stRef)
	}
	// Direct residual on the original SDD system.
	resOf := func(x []float64) float64 {
		r := a.Apply(x)
		matrix.SubIntoW(0, r, b, r)
		return matrix.Norm2W(0, r) / matrix.Norm2W(0, b)
	}
	if r := resOf(xRef); r > 100*eps {
		t.Fatalf("sequential SDD residual %.3e", r)
	}
	for _, w := range equivalenceWorkers {
		s, err := NewSDDWithOptions(a, DefaultChainParams(), Options{Workers: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, st := s.Solve(b, eps)
		if !st.Converged {
			t.Fatalf("workers=%d: not converged: %+v", w, st)
		}
		if r := resOf(x); r > 100*eps {
			t.Errorf("workers=%d: SDD residual %.3e", w, r)
		}
		if d := relDiff(xRef, x); d > 1e-10 {
			t.Errorf("workers=%d: SDD solution diverges by %.3e", w, d)
		}
	}
}

// TestEliminationWorkerEquivalence pins the parallel forward/back
// substitutions (per-round two-phase scatter, round-parallel replay) to the
// sequential reference bitwise: the op log is identical by construction
// (hash coins), and within-round independence means the float operations are
// literally the same.
func TestEliminationWorkerEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":     gen.Path(5000),
		"grid":     gen.Grid2D(50, 50),
		"weighted": gen.WithExponentialWeights(gen.Grid2D(40, 40), 4, 5, 3),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			elims := map[int]*Elimination{}
			for _, w := range []int{1, 0, 4} {
				rng := rand.New(rand.NewSource(21))
				elims[w] = GreedyEliminationW(w, g, rng, nil)
			}
			ref := elims[1]
			for _, w := range []int{0, 4} {
				e := elims[w]
				if len(e.Ops) != len(ref.Ops) || e.Rounds != ref.Rounds {
					t.Fatalf("workers=%d: op log shape differs (%d ops/%d rounds vs %d/%d)",
						w, len(e.Ops), e.Rounds, len(ref.Ops), ref.Rounds)
				}
				for i := range ref.Ops {
					if e.Ops[i] != ref.Ops[i] {
						t.Fatalf("workers=%d: op %d differs: %+v vs %+v", w, i, e.Ops[i], ref.Ops[i])
					}
				}
			}
			b := randRHS(g.N, 23)
			redRef, carryRef := forwardRHS(ref, 1, b)
			xr := make([]float64, len(redRef))
			for i := range xr {
				xr[i] = float64(i%13) * 0.25
			}
			xRef := backSolve(ref, 1, xr, carryRef)
			for _, w := range []int{0, 2, 4} {
				red, carry := forwardRHS(ref, w, b)
				for i := range redRef {
					if red[i] != redRef[i] {
						t.Fatalf("workers=%d: ForwardRHS diverges at %d", w, i)
					}
				}
				for i := range carryRef {
					if carry[i] != carryRef[i] {
						t.Fatalf("workers=%d: carry diverges at %d", w, i)
					}
				}
				x := backSolve(ref, w, xr, carry)
				for i := range xRef {
					if x[i] != xRef[i] {
						t.Fatalf("workers=%d: BackSolve diverges at %d", w, i)
					}
				}
			}
		})
	}
}
