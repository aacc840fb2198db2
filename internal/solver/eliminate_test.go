package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// forwardRHS runs ForwardRHSIntoW into freshly allocated buffers.
func forwardRHS(el *Elimination, workers int, b []float64) (reduced, carry []float64) {
	reduced, carry = make([]float64, len(el.Keep)), make([]float64, len(el.Ops))
	el.ForwardRHSIntoW(workers, b, make([]float64, el.OrigN), carry, reduced)
	return reduced, carry
}

// backSolve runs BackSolveIntoW into a freshly allocated solution.
func backSolve(el *Elimination, workers int, xReduced, carry []float64) []float64 {
	x := make([]float64, el.OrigN)
	el.BackSolveIntoW(workers, xReduced, carry, x)
	return x
}

// requireBlockReplaysBitwise runs ForwardRHSBlockIntoW and then
// BackSolveBlockIntoW (on a random reduced solution and the block's carry)
// at k ∈ {2, 4} — both fixed-width bodies — with b as lane 0, and requires
// every lane to equal the single replays of its column bit for bit, at
// Workers 1 and 4. Both replays must panic at the widths they have no body
// for.
func requireBlockReplaysBitwise(t *testing.T, el *Elimination, b []float64) {
	t.Helper()
	nk := len(el.Keep)
	for _, k := range []int{3, 5, 8} {
		var bb, work, carry, red, x matrix.Block
		bb.Reshape(el.OrigN, k)
		work.Reshape(el.OrigN, k)
		carry.Reshape(len(el.Ops), k)
		red.Reshape(nk, k)
		x.Reshape(el.OrigN, k)
		requireReplayPanics(t, fmt.Sprintf("forward replay at width %d", k), func() {
			el.ForwardRHSBlockIntoW(1, &bb, &work, &carry, &red)
		})
		requireReplayPanics(t, fmt.Sprintf("back-substitution at width %d", k), func() {
			el.BackSolveBlockIntoW(1, &red, &carry, &x)
		})
	}
	for _, k := range []int{2, 4} {
		bs, xrs := [][]float64{b}, make([][]float64, k)
		for c := 1; c < k; c++ {
			bs = append(bs, randRHS(el.OrigN, int64(12+c)))
		}
		var bb, work, carry, red, xr, x matrix.Block
		bb.Reshape(el.OrigN, k)
		xr.Reshape(nk, k)
		for c := range bs {
			bb.SetCol(c, bs[c])
			xrs[c] = randRHS(nk, int64(40+c))
			xr.SetCol(c, xrs[c])
		}
		work.Reshape(el.OrigN, k)
		carry.Reshape(len(el.Ops), k)
		red.Reshape(nk, k)
		x.Reshape(el.OrigN, k)
		lane := func(blk *matrix.Block, c int) []float64 {
			col := make([]float64, blk.N())
			blk.ColInto(c, col)
			return col
		}
		for _, w := range []int{1, 4} {
			el.ForwardRHSBlockIntoW(w, &bb, &work, &carry, &red)
			el.BackSolveBlockIntoW(w, &xr, &carry, &x)
			for c := range bs {
				redC, carryC := forwardRHS(el, 1, bs[c])
				label := fmt.Sprintf("workers=%d k=%d lane %d", w, k, c)
				requireBitwiseVec(t, label+" reduced", lane(&red, c), redC)
				requireBitwiseVec(t, label+" carry", lane(&carry, c), carryC)
				requireBitwiseVec(t, label+" back-solve", lane(&x, c), backSolve(el, 1, xrs[c], carryC))
			}
		}
	}
}

// TestForwardReplayOpOrderBitwise holds the op-order forward replay — k = 1
// at Workers 1 and the width-2 and width-4 bodies — to the reverse-index
// replay that only k = 1 at Workers ≥ 2 still runs, bitwise in the reduced
// right-hand side and the carries, lane by lane. The eliminations are a
// star's (every op a rake onto one shared neighbour), a weighted cycle's
// (splices onto shared neighbours), and every level's of the deep chains
// on grid 32² and pa:2000:4 (whose minimum degree leaves nothing to
// eliminate before sparsification).
func TestForwardReplayOpOrderBitwise(t *testing.T) {
	type namedElim struct {
		name string
		el   *Elimination
	}
	elims := []namedElim{
		{"star", GreedyEliminationW(1, gen.Star(500), rand.New(rand.NewSource(11)), nil)},
		{"cycle", GreedyEliminationW(1, gen.WithUniformWeights(gen.Cycle(1000), 0.5, 4, 3), rand.New(rand.NewSource(12)), nil)},
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 32²", gen.Grid2D(32, 32)},
		{"pa:2000:4", gen.PreferentialAttachment(2000, 4, 7)},
	} {
		s, err := NewWithOptions(tc.g, deepChainParams(tc.g), Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Chain.Levels) == 0 {
			t.Fatalf("%s: chain has no levels", tc.name)
		}
		for i := range s.Chain.Levels {
			elims = append(elims, namedElim{fmt.Sprintf("%s level %d", tc.name, i), s.Chain.Levels[i].Elim})
		}
	}
	for _, tc := range elims {
		el := tc.el
		if len(el.Ops) == 0 {
			t.Fatalf("%s: elimination has no ops", tc.name)
		}
		for _, k := range []int{1, 2, 4} {
			var bb, work, carry, red matrix.Block
			bb.Reshape(el.OrigN, k)
			work.Reshape(el.OrigN, k)
			carry.Reshape(len(el.Ops), k)
			red.Reshape(len(el.Keep), k)
			bs := make([][]float64, k)
			for c := range bs {
				bs[c] = randRHS(el.OrigN, int64(60+c))
				bb.SetCol(c, bs[c])
			}
			el.ForwardRHSBlockIntoW(1, &bb, &work, &carry, &red)
			gotRed, gotCarry := make([]float64, len(el.Keep)), make([]float64, len(el.Ops))
			for c, b := range bs {
				red.ColInto(c, gotRed)
				carry.ColInto(c, gotCarry)
				for _, w := range []int{2, 4} {
					wantRed, wantCarry := forwardRHS(el, w, b)
					label := fmt.Sprintf("%s k=%d lane %d vs workers %d", tc.name, k, c, w)
					requireBitwiseVec(t, label+" reduced", gotRed, wantRed)
					requireBitwiseVec(t, label+" carry", gotCarry, wantCarry)
				}
			}
		}
	}
}

// requireReplayPanics fails the test unless f panics.
func requireReplayPanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// exactElimSolve eliminates g, solves the reduced system directly, and
// back-substitutes; it fails the test if L x != b beyond tol.
func exactElimSolve(t *testing.T, g *graph.Graph, el *Elimination, b []float64, tol float64) []float64 {
	t.Helper()
	red, carry := forwardRHS(el, 0, b)
	var xr []float64
	if len(el.Keep) > 0 {
		comp, k := el.Reduced.ConnectedComponents()
		lf, err := matrix.NewLaplacianFactorW(0, matrix.LaplacianOf(el.Reduced), comp, k)
		if err != nil {
			t.Fatal(err)
		}
		xr = lf.Solve(red)
	}
	x := backSolve(el, 0, xr, carry)
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
	el := GreedyEliminationW(0, g, rng, nil)
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
		el := GreedyEliminationW(0, g, rng, nil)
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
		requireBlockReplaysBitwise(t, el, b)
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
	redRef, carryRef := forwardRHS(el, 1, b)
	for _, w := range []int{0, 2, 4} {
		red, carry := forwardRHS(el, w, b)
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
	// The block forms must reproduce the same columns bitwise.
	requireBlockReplaysBitwise(t, el, b)
	exactElimSolve(t, g, el, b, 1e-7)
}

// TestEliminationEmptyAndEdgelessGraphs: no edges means one all-deg0 round.
func TestEliminationEmptyAndEdgelessGraphs(t *testing.T) {
	g := graph.FromEdges(5, nil)
	rng := rand.New(rand.NewSource(3))
	el := GreedyEliminationW(0, g, rng, nil)
	if el.Reduced.N != 0 || el.Rounds != 1 || len(el.Ops) != 5 {
		t.Fatalf("edgeless: reduced %d, rounds %d, ops %d", el.Reduced.N, el.Rounds, len(el.Ops))
	}
	x := backSolve(el, 0, nil, make([]float64, len(el.Ops)))
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, v)
		}
	}
	g0 := graph.FromEdges(0, nil)
	el0 := GreedyEliminationW(0, g0, rand.New(rand.NewSource(4)), nil)
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
	el := GreedyEliminationW(0, g, rng, nil)
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
