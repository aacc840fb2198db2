package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
)

// The cross-layout fuzz suite for the block batch engine: seeded random
// graph specs across the service's families (grids, random-regular meshes,
// preferential attachment, disconnected unions) × batch widths
// k ∈ {1, 2, 5, 8} × Workers ∈ {1, 2, 4}, asserting the batch-solve
// contract end to end — every lane of a block SolveBatch is bitwise
// identical to an independent single Solve of that column, with identical
// iteration counts and convergence flags. Zero columns and mixed-difficulty
// columns are injected so the driver's initial compaction and mid-iteration
// lane dropout both run under the fuzz, and the suite counts observed
// dropouts to prove the compaction path was actually exercised, not just
// reachable.

func TestFuzzBatchLaneEquivalence(t *testing.T) {
	const (
		sweeps = 6
		eps    = 1e-8
	)
	widths := []int{1, 2, 3, 4, 5, 8}
	workersList := []int{2, 4}
	rng := rand.New(rand.NewSource(20260808))
	dropouts := 0
	for sweep := 0; sweep < sweeps; sweep++ {
		spec, g := randomFuzzGraph(rng)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("%02d-%s", sweep, spec), func(t *testing.T) {
			params := deepChainParams(g)
			params.Seed = seed
			solvers := map[int]*Solver{}
			for _, w := range append([]int{1}, workersList...) {
				s, err := NewWithOptions(g, params, Options{Workers: w}, nil)
				if err != nil {
					t.Fatalf("workers=%d: build: %v", w, err)
				}
				solvers[w] = s
			}
			ref := solvers[1]
			brng := rand.New(rand.NewSource(seed ^ 0xb10c))
			for _, k := range widths {
				bs := make([][]float64, k)
				for c := range bs {
					b := make([]float64, g.N)
					if k > 1 && c == 1 && brng.Intn(2) == 0 {
						// An all-zero column: converges before the first
						// iteration and exercises the initial lane compaction.
						bs[c] = b
						continue
					}
					for i := range b {
						b[i] = brng.NormFloat64()
					}
					bs[c] = b
				}
				// Golden: k independent single solves on the sequential
				// reference solver.
				want := make([][]float64, k)
				wantSt := make([]SolveStats, k)
				for c := range bs {
					want[c], wantSt[c] = ref.Solve(bs[c], eps)
				}
				for c := 1; c < k; c++ {
					if wantSt[c].Iterations != wantSt[0].Iterations {
						dropouts++
						break
					}
				}
				for _, w := range append([]int{1}, workersList...) {
					xs, sts := solvers[w].SolveBatch(bs, eps)
					for c := range want {
						if sts[c].Iterations != wantSt[c].Iterations ||
							sts[c].Converged != wantSt[c].Converged {
							t.Fatalf("workers=%d k=%d col %d: stats %+v, single solve %+v",
								w, k, c, sts[c], wantSt[c])
						}
						for i := range want[c] {
							if math.Float64bits(xs[c][i]) != math.Float64bits(want[c][i]) {
								t.Fatalf("workers=%d k=%d col %d entry %d: batch %x != single %x",
									w, k, c, i, math.Float64bits(xs[c][i]), math.Float64bits(want[c][i]))
							}
						}
					}
				}
			}
		})
	}
	// The sweep seeds are fixed, so the number of mixed-convergence batches
	// is deterministic; at least one proves the mid-batch dropout path (lane
	// compaction with live survivors) ran under the fuzz.
	if dropouts == 0 {
		t.Fatalf("no batch in the sweep had lanes converging at different iterations; dropout path untested")
	}
	t.Logf("batches with mid-batch lane dropout: %d", dropouts)
}

// TestSolveBatchMidIterationDropout pins the dropout path deterministically:
// on a disconnected union of an easy small grid and a rougher preferential-
// attachment component, a lane whose RHS lives only on the easy component
// converges strictly earlier than a lane spanning both, so the batch driver
// must compact live lanes mid-iteration — and the surviving lanes' bits must
// not move (compaction is pure data movement, never recomputation).
func TestSolveBatchMidIterationDropout(t *testing.T) {
	const eps = 1e-8
	g1 := gen.Grid2D(6, 6)
	g2 := gen.PreferentialAttachment(300, 2, 5)
	var edges []graph.Edge
	edges = append(edges, g1.Edges...)
	for _, e := range g2.Edges {
		edges = append(edges, graph.Edge{U: e.U + g1.N, V: e.V + g1.N, W: e.W})
	}
	g := graph.FromEdges(g1.N+g2.N, edges)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	easy := make([]float64, g.N) // supported on the grid component only
	for i := 0; i < g1.N; i++ {
		easy[i] = rng.NormFloat64()
	}
	hard := make([]float64, g.N)
	for i := range hard {
		hard[i] = rng.NormFloat64()
	}
	zero := make([]float64, g.N)
	bs := [][]float64{hard, easy, zero, hard}

	want := make([][]float64, len(bs))
	wantSt := make([]SolveStats, len(bs))
	for c := range bs {
		want[c], wantSt[c] = s.Solve(bs[c], eps)
	}
	if wantSt[1].Iterations >= wantSt[0].Iterations {
		t.Fatalf("component-restricted lane took %d iterations, full lane %d; dropout not forced",
			wantSt[1].Iterations, wantSt[0].Iterations)
	}
	xs, sts := s.SolveBatch(bs, eps)
	for c := range want {
		if sts[c].Iterations != wantSt[c].Iterations || !sts[c].Converged {
			t.Fatalf("col %d: stats %+v, single solve %+v", c, sts[c], wantSt[c])
		}
		for i := range want[c] {
			if math.Float64bits(xs[c][i]) != math.Float64bits(want[c][i]) {
				t.Fatalf("col %d entry %d: batch %x != single %x",
					c, i, math.Float64bits(xs[c][i]), math.Float64bits(want[c][i]))
			}
		}
	}
}
