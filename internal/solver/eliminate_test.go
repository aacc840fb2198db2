package solver

import (
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// exactElimSolve eliminates g, solves the reduced system directly, and
// back-substitutes; it fails the test if L x != b beyond tol.
func exactElimSolve(t *testing.T, g *graph.Graph, el *Elimination, b []float64, tol float64) []float64 {
	t.Helper()
	red, carry := el.ForwardRHS(b)
	var xr []float64
	if len(el.Keep) > 0 {
		comp, k := el.Reduced.ConnectedComponents()
		lf, err := matrix.NewLaplacianFactor(matrix.LaplacianOf(el.Reduced), comp, k)
		if err != nil {
			t.Fatal(err)
		}
		xr = lf.Solve(red)
	}
	x := el.BackSolve(xr, carry)
	ax := matrix.LaplacianOf(g).Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > tol {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
	return x
}

// TestEliminationParallelEdgesMergeToLeaf covers the dedup edge case: a
// vertex whose two CSR half-edges point at the same neighbor is degree 1
// after parallel-edge merging, and must be raked as a leaf with the summed
// conductance — not treated as a degree-2 splice.
func TestEliminationParallelEdgesMergeToLeaf(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 3}, // parallel pair: deg(0) = 1 merged
		{U: 1, V: 2, W: 5},
	})
	if g.Degree(0) != 2 {
		t.Fatalf("raw CSR degree of 0 = %d, want 2 half-edges", g.Degree(0))
	}
	rng := rand.New(rand.NewSource(5))
	el := GreedyElimination(g, rng, nil)
	var op0 *ElimOp
	for i := range el.Ops {
		if el.Ops[i].V == 0 {
			op0 = &el.Ops[i]
			break
		}
	}
	if op0 == nil {
		t.Fatal("vertex 0 never eliminated")
	}
	if op0.Kind != ElimDeg1 || op0.A != 1 || op0.W1 != 5 {
		t.Fatalf("vertex 0 eliminated as %+v, want deg1 to 1 with merged weight 5", *op0)
	}
	exactElimSolve(t, g, el, []float64{1, 1, -2}, 1e-9)
}

// TestEliminationCycleReflipRounds runs the all-degree-2 extreme: every
// round depends entirely on the coin flips, some seeds produce rounds where
// every coin fails (the re-flip path), and repeated splices create parallel
// edges that must merge. The elimination must terminate with a consistent
// round log (RoundEnd strictly increasing — re-flips never record empty
// rounds) and an exact solve.
func TestEliminationCycleReflipRounds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := gen.WithExponentialWeights(gen.Cycle(257), 4, 3, seed)
		rng := rand.New(rand.NewSource(seed))
		el := GreedyElimination(g, rng, nil)
		if el.Reduced.N > 2 {
			t.Fatalf("seed %d: cycle reduced only to %d vertices", seed, el.Reduced.N)
		}
		prev := 0
		for ri, end := range el.RoundEnd {
			if end <= prev {
				t.Fatalf("seed %d: round %d recorded empty (RoundEnd %v)", seed, ri, el.RoundEnd)
			}
			prev = end
		}
		if el.RoundEnd[len(el.RoundEnd)-1] != len(el.Ops) {
			t.Fatalf("seed %d: RoundEnd does not cover the op log", seed)
		}
		b := randRHS(g.N, seed+100)
		exactElimSolve(t, g, el, b, 1e-7)
	}
}

// TestForwardRHSSharedNeighborHotspot is the owner-computes hot spot: on a
// star every leaf is eliminated in round one and all of them forward their
// b-mass to the single hub. The parallel scatter must accumulate the hub's
// contributions in op order — bitwise identical to the sequential replay —
// for every worker count.
func TestForwardRHSSharedNeighborHotspot(t *testing.T) {
	g := gen.Star(3000)
	rng := rand.New(rand.NewSource(11))
	el := GreedyEliminationW(1, g, rng, nil)
	lo, hi := el.roundBounds(0)
	if hi-lo != g.N-1 {
		t.Fatalf("round 1 eliminated %d vertices, want all %d leaves", hi-lo, g.N-1)
	}
	b := randRHS(g.N, 12)
	redRef, carryRef := el.ForwardRHSW(1, b)
	for _, w := range []int{0, 2, 4} {
		red, carry := el.ForwardRHSW(w, b)
		for i := range redRef {
			if red[i] != redRef[i] {
				t.Fatalf("workers=%d: reduced rhs diverges at %d", w, i)
			}
		}
		for i := range carryRef {
			if carry[i] != carryRef[i] {
				t.Fatalf("workers=%d: carry diverges at %d", w, i)
			}
		}
	}
	// The block form must reproduce the same columns bitwise.
	bs := [][]float64{b, randRHS(g.N, 13), randRHS(g.N, 14)}
	k := len(bs)
	var bb, work, carry, red matrix.Block
	bb.Reshape(g.N, k)
	for c := range bs {
		bb.SetCol(c, bs[c])
	}
	work.Reshape(el.OrigN, k)
	carry.Reshape(len(el.Ops), k)
	red.Reshape(len(el.Keep), k)
	for _, w := range []int{1, 4} {
		el.ForwardRHSBlockIntoW(w, &bb, &work, &carry, &red)
		for c := range bs {
			redC, carryC := el.ForwardRHSW(1, bs[c])
			gotRed, gotCarry := make([]float64, len(redC)), make([]float64, len(carryC))
			red.ColInto(c, gotRed)
			carry.ColInto(c, gotCarry)
			for i := range redC {
				if gotRed[i] != redC[i] {
					t.Fatalf("workers=%d: block column %d reduced diverges at %d", w, c, i)
				}
			}
			for i := range carryC {
				if gotCarry[i] != carryC[i] {
					t.Fatalf("workers=%d: block column %d carry diverges at %d", w, c, i)
				}
			}
		}
	}
	exactElimSolve(t, g, el, b, 1e-7)
}

// TestEliminationEmptyAndEdgelessGraphs: no edges means one all-deg0 round.
func TestEliminationEmptyAndEdgelessGraphs(t *testing.T) {
	g := graph.FromEdges(5, nil)
	rng := rand.New(rand.NewSource(3))
	el := GreedyElimination(g, rng, nil)
	if el.Reduced.N != 0 || el.Rounds != 1 || len(el.Ops) != 5 {
		t.Fatalf("edgeless: reduced %d, rounds %d, ops %d", el.Reduced.N, el.Rounds, len(el.Ops))
	}
	x := el.BackSolve(nil, make([]float64, len(el.Ops)))
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, v)
		}
	}
	g0 := graph.FromEdges(0, nil)
	el0 := GreedyElimination(g0, rand.New(rand.NewSource(4)), nil)
	if el0.Rounds != 0 || el0.Reduced.N != 0 {
		t.Fatalf("empty graph: rounds %d, reduced %d", el0.Rounds, el0.Reduced.N)
	}
}

// TestEliminationSpliceMergesOntoExistingEdge: eliminating the middle of a
// triangle's path splices a parallel edge onto the surviving triangle edge;
// the rebuild must merge them into one conductance (series + direct).
func TestEliminationSpliceMergesOntoExistingEdge(t *testing.T) {
	// Triangle 0–1–2 plus a pendant path to keep 0 and 2 from being raked
	// before the splice can land on edge (0,2).
	g := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 1},
	})
	rng := rand.New(rand.NewSource(21))
	el := GreedyElimination(g, rng, nil)
	b := []float64{1, 0, -1}
	exactElimSolve(t, g, el, b, 1e-9)
	// However the coins landed, the log must stay within-round independent.
	start := 0
	for _, end := range el.RoundEnd {
		elim := map[int32]bool{}
		for _, op := range el.Ops[start:end] {
			elim[op.V] = true
		}
		for _, op := range el.Ops[start:end] {
			if op.Kind == ElimDeg1 && elim[op.A] {
				t.Fatal("deg1 neighbor eliminated in same round")
			}
			if op.Kind == ElimDeg2 && (elim[op.A] || elim[op.B]) {
				t.Fatal("deg2 neighbor eliminated in same round")
			}
		}
		start = end
	}
}
