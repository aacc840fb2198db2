package solver

import (
	"fmt"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// The SolveBatch acceptance contract: k batched right-hand sides return
// bitwise-identical vectors to k independent Solve calls (batching shares
// traversals, never arithmetic), while the whole batch drives one
// preconditioner-chain pass per PCG iteration.

func batchGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":          gen.Grid2D(32, 32),
		"path":          gen.Path(900),
		"weighted-grid": gen.WithExponentialWeights(gen.Grid2D(24, 24), 8, 4, 5),
		"pa":            gen.PreferentialAttachment(800, 3, 17),
	}
}

func requireBitwiseVec(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %g vs %g", label, i, got[i], want[i])
		}
	}
}

func TestSolveBatchBitwiseEquivalence(t *testing.T) {
	const eps = 1e-7
	for name, g := range batchGraphs() {
		t.Run(name, func(t *testing.T) {
			s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			const k = 4
			bs := make([][]float64, k)
			for c := range bs {
				bs[c] = randRHS(g.N, int64(100+c))
			}
			xs, sts := s.SolveBatch(bs, eps)
			if len(xs) != k || len(sts) != k {
				t.Fatalf("batch returned %d/%d results, want %d", len(xs), len(sts), k)
			}
			for c := range bs {
				ref, refSt := s.Solve(bs[c], eps)
				requireBitwiseVec(t, fmt.Sprintf("column %d", c), xs[c], ref)
				if sts[c].Iterations != refSt.Iterations {
					t.Fatalf("column %d: batch took %d iterations, single %d",
						c, sts[c].Iterations, refSt.Iterations)
				}
				if sts[c].Converged != refSt.Converged {
					t.Fatalf("column %d: converged mismatch", c)
				}
				if sts[c].Residual != refSt.Residual {
					t.Fatalf("column %d: residual %g vs %g", c, sts[c].Residual, refSt.Residual)
				}
				if !refSt.Converged {
					t.Fatalf("column %d did not converge", c)
				}
			}
		})
	}
}

// TestSolveBatchWorkerEquivalence: the batch path must also be worker-count
// independent (same fixed reduction trees as the single path).
func TestSolveBatchWorkerEquivalence(t *testing.T) {
	g := gen.Grid2D(28, 28)
	const eps = 1e-7
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{randRHS(g.N, 1), randRHS(g.N, 2), randRHS(g.N, 3)}
	ref, _ := s.SolveBatchOpts(bs, eps, Options{Workers: 1})
	for _, w := range []int{0, 2, 4} {
		xs, _ := s.SolveBatchOpts(bs, eps, Options{Workers: w})
		for c := range xs {
			requireBitwiseVec(t, fmt.Sprintf("workers=%d column %d", w, c), xs[c], ref[c])
		}
	}
}

// TestSolveBatchZeroAndMixedRHS: zero columns converge immediately (like the
// single driver) without disturbing their batch-mates.
func TestSolveBatchZeroRHS(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, g.N)
	bs := [][]float64{randRHS(g.N, 5), zero, randRHS(g.N, 6)}
	xs, sts := s.SolveBatch(bs, 1e-7)
	for c, b := range bs {
		ref, refSt := s.Solve(b, 1e-7)
		requireBitwiseVec(t, fmt.Sprintf("column %d", c), xs[c], ref)
		if sts[c].Converged != refSt.Converged || sts[c].Iterations != refSt.Iterations {
			t.Fatalf("column %d stats mismatch: %+v vs %+v", c, sts[c], refSt)
		}
	}
}

// TestSolveBatchSharesChainPasses verifies the amortization claim behind
// SolveBatch: one preconditioner-chain pass per PCG iteration serves the
// whole batch. The chain's PrecondApplies counter increments once per
// top-level apply regardless of batch width, so the count consumed by a
// batched solve must equal the iteration count of the slowest column (+1
// for the init pass) — NOT k times it, which is what k independent solves
// would cost.
func TestSolveBatchSharesChainPasses(t *testing.T) {
	g := gen.Grid2D(24, 24)
	s, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = randRHS(g.N, int64(200+c))
	}
	before := s.Chain.PrecondApplies()
	_, sts := s.SolveBatch(bs, 1e-7)
	passes := int(s.Chain.PrecondApplies() - before)
	maxIters := 0
	for c := range sts {
		if !sts[c].Converged {
			t.Fatalf("column %d did not converge", c)
		}
		if sts[c].Iterations > maxIters {
			maxIters = sts[c].Iterations
		}
	}
	// Init pass + one pass per iteration that entered the precond step.
	// Converging columns skip the precond of their final iteration, so the
	// pass count is at most maxIters (the slowest column's final iteration
	// contributes none) + 1 for init.
	if passes > maxIters+1 {
		t.Fatalf("batch used %d chain passes for max %d iterations — not shared across the batch", passes, maxIters)
	}
	sumIters := 0
	for c := range sts {
		sumIters += sts[c].Iterations
	}
	if k > 1 && passes >= sumIters {
		t.Fatalf("batch used %d chain passes vs %d summed column iterations — no amortization", passes, sumIters)
	}
}

// TestPrecondApplyBatchBitwise pins a k-wide pass of the apply recursion to
// width-1 passes (PrecondApplyIntoW), column by column.
func TestPrecondApplyBatchBitwise(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Grid2D(20, 20), 6, 3, 7)
	s, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := [][]float64{randRHS(g.N, 11), randRHS(g.N, 12), randRHS(g.N, 13)}
	var rb matrix.Block
	rb.Reshape(g.N, len(rs))
	for c, r := range rs {
		rb.SetCol(c, r)
	}
	zs := s.Chain.applyHTopBlock(0, &rb, newWorkspace(s.Chain, len(rs)))
	z := make([]float64, g.N)
	for c := range rs {
		zs.ColInto(c, z)
		requireBitwiseVec(t, fmt.Sprintf("column %d", c), z, precondApply(s.Chain, rs[c]))
	}
}
