package solver

import (
	"fmt"
	"sync"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
)

// The concurrent-solve equivalence suite locks down the serving-layer
// contract: a Solver (and its Chain) is read-only after construction, so N
// goroutines solving distinct right-hand sides on ONE shared Solver must
// produce bitwise-identical results to the same solves run sequentially.
// Run under -race this also proves the absence of data races on the shared
// chain state (the atomic bottomSolves counter and recorder are the only
// writers).

func concurrencyGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":          gen.Grid2D(30, 30),
		"weighted-grid": gen.WithExponentialWeights(gen.Grid2D(24, 24), 8, 4, 5),
		"pa":            gen.PreferentialAttachment(700, 3, 19),
	}
}

func TestConcurrentSolveEquivalence(t *testing.T) {
	const (
		eps        = 1e-7
		goroutines = 8
	)
	for name, g := range concurrencyGraphs() {
		t.Run(name, func(t *testing.T) {
			s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			bs := make([][]float64, goroutines)
			for i := range bs {
				bs[i] = randRHS(g.N, int64(300+i))
			}
			// Sequential reference pass.
			refs := make([][]float64, goroutines)
			refSts := make([]SolveStats, goroutines)
			for i, b := range bs {
				refs[i], refSts[i] = s.Solve(b, eps)
				if !refSts[i].Converged {
					t.Fatalf("reference solve %d did not converge", i)
				}
			}
			// Concurrent pass on the same shared Solver.
			got := make([][]float64, goroutines)
			gotSts := make([]SolveStats, goroutines)
			var wg sync.WaitGroup
			for i := range bs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], gotSts[i] = s.Solve(bs[i], eps)
				}(i)
			}
			wg.Wait()
			for i := range bs {
				requireBitwiseVec(t, fmt.Sprintf("goroutine %d", i), got[i], refs[i])
				if gotSts[i].Iterations != refSts[i].Iterations {
					t.Fatalf("goroutine %d: %d iterations concurrent vs %d sequential",
						i, gotSts[i].Iterations, refSts[i].Iterations)
				}
			}
		})
	}
}

// TestConcurrentMixedSolveAndBatch interleaves single solves, batched
// solves and per-call worker overrides on one shared Solver — the exact
// access pattern of the HTTP serving layer.
func TestConcurrentMixedSolveAndBatch(t *testing.T) {
	const eps = 1e-7
	g := gen.Grid2D(26, 26)
	s, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	b0 := randRHS(g.N, 41)
	b1 := randRHS(g.N, 42)
	b2 := randRHS(g.N, 43)
	ref0, _ := s.Solve(b0, eps)
	ref1, _ := s.Solve(b1, eps)
	ref2, _ := s.Solve(b2, eps)
	var wg sync.WaitGroup
	results := make([][][]float64, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				x, _ := s.SolveOpts(b0, eps, Options{Workers: 1 + i%2})
				results[i] = [][]float64{x}
			case 1:
				xs, _ := s.SolveBatch([][]float64{b1, b2}, eps)
				results[i] = xs
			default:
				x, _ := s.Solve(b2, eps)
				results[i] = [][]float64{x}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		switch i % 3 {
		case 0:
			requireBitwiseVec(t, fmt.Sprintf("task %d", i), results[i][0], ref0)
		case 1:
			requireBitwiseVec(t, fmt.Sprintf("task %d col 0", i), results[i][0], ref1)
			requireBitwiseVec(t, fmt.Sprintf("task %d col 1", i), results[i][1], ref2)
		default:
			requireBitwiseVec(t, fmt.Sprintf("task %d", i), results[i][0], ref2)
		}
	}
}
