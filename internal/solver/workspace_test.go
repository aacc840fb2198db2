package solver

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"parlap/internal/gen"
)

// The workspace-reuse equivalence wall: recycling per-solve scratch through
// the sync.Pool must never change a bit of any answer. Every buffer is
// fully overwritten before it is read, so a pooled workspace behaves
// exactly like a fresh one — these tests lock that for repeated solves,
// for concurrent pool sharing (run under -race), and for the calibrated
// schedule across worker counts.

// TestWorkspaceReuseBitwise solves the same right-hand sides repeatedly on
// one Solver (forcing workspace recycling) and compares every answer
// bitwise against a fresh Solver built from the same inputs.
func TestWorkspaceReuseBitwise(t *testing.T) {
	g := gen.Grid2D(28, 28)
	shared, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-7
	for round := 0; round < 3; round++ {
		for seed := int64(0); seed < 3; seed++ {
			b := randRHS(g.N, 500+seed)
			got, gotSt := shared.Solve(b, eps)
			fresh, err := New(g, deepChainParams(g), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt := fresh.Solve(b, eps)
			requireBitwiseVec(t, fmt.Sprintf("round %d seed %d", round, seed), got, want)
			if gotSt.Iterations != wantSt.Iterations {
				t.Fatalf("round %d seed %d: %d iterations on reused workspace vs %d fresh",
					round, seed, gotSt.Iterations, wantSt.Iterations)
			}
		}
	}
	// Batch path through the same pool: columns bitwise equal to singles.
	bs := [][]float64{randRHS(g.N, 600), randRHS(g.N, 601), randRHS(g.N, 602)}
	xs, _ := shared.SolveBatch(bs, eps)
	for c, b := range bs {
		want, _ := shared.Solve(b, eps)
		requireBitwiseVec(t, fmt.Sprintf("batch col %d", c), xs[c], want)
	}
}

// TestWorkspacePoolConcurrent hammers one Solver from many goroutines with
// several solves each, so pool workspaces are stolen, recycled and grown
// (single and batch widths interleave). Every result must be bitwise equal
// to the sequential reference; -race proves the pool hand-off is clean.
func TestWorkspacePoolConcurrent(t *testing.T) {
	g := gen.Grid2D(24, 24)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		eps        = 1e-7
		goroutines = 6
		solvesEach = 3
	)
	bs := make([][]float64, goroutines)
	refs := make([][]float64, goroutines)
	for i := range bs {
		bs[i] = randRHS(g.N, int64(700+i))
		refs[i], _ = s.Solve(bs[i], eps)
	}
	refBatch, _ := s.SolveBatch([][]float64{bs[0], bs[1]}, eps)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*solvesEach)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < solvesEach; r++ {
				if i%2 == 0 {
					x, _ := s.Solve(bs[i], eps)
					for j := range x {
						if math.Float64bits(x[j]) != math.Float64bits(refs[i][j]) {
							errs <- fmt.Sprintf("goroutine %d solve %d: bit mismatch at %d", i, r, j)
							return
						}
					}
				} else {
					xs, _ := s.SolveBatch([][]float64{bs[0], bs[1]}, eps)
					for c := range xs {
						for j := range xs[c] {
							if math.Float64bits(xs[c][j]) != math.Float64bits(refBatch[c][j]) {
								errs <- fmt.Sprintf("goroutine %d batch %d col %d: bit mismatch at %d", i, r, c, j)
								return
							}
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCalibrationWorkerEquivalence locks the calibrated schedule — the
// Lanczos-measured bounds, the measured κ and the derived ChebIts — to be
// bitwise reproducible for every worker count, and the solves with it too.
func TestCalibrationWorkerEquivalence(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Grid2D(40, 40), 6, 4, 9)
	ref, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refSched := ref.Chain.Schedule()
	b := randRHS(g.N, 800)
	refX, refSt := ref.Solve(b, 1e-7)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched := s.Chain.Schedule()
		if len(sched) != len(refSched) {
			t.Fatalf("workers=%d: %d levels vs %d", w, len(sched), len(refSched))
		}
		for i := range sched {
			a, r := sched[i], refSched[i]
			if a.ChebIts != r.ChebIts || a.Calibrated != r.Calibrated ||
				math.Float64bits(a.EigHi) != math.Float64bits(r.EigHi) ||
				math.Float64bits(a.EigLo) != math.Float64bits(r.EigLo) ||
				math.Float64bits(a.KappaMeasured) != math.Float64bits(r.KappaMeasured) {
				t.Fatalf("workers=%d level %d: schedule diverged: %+v vs %+v", w, i, a, r)
			}
		}
		x, st := s.Solve(b, 1e-7)
		requireBitwiseVec(t, fmt.Sprintf("workers %d", w), x, refX)
		if st.Iterations != refSt.Iterations {
			t.Fatalf("workers=%d: %d iterations vs %d", w, st.Iterations, refSt.Iterations)
		}
	}
}
