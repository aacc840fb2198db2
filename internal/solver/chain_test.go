package solver

import (
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

func TestChebyshevSolvesWithExactPreconditioner(t *testing.T) {
	// With M = A (exact preconditioner), spec(M⁻¹A) = {1}; Chebyshev on
	// [0.9, 1.1] must converge essentially immediately.
	g := gen.Grid2D(10, 10)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	lf, err := matrix.NewLaplacianFactor(lap, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(g.N, 1)
	x := chebyshev(0, lap, b, 8, 0.9, 1.1, lf.Solve, matrix.NewCompIndex(comp, k), nil)
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-6 {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}

func TestChebyshevIdentityPreconditioner(t *testing.T) {
	// M = I on a path Laplacian: spectrum within (0, 4]; enough iterations
	// with the true interval must reduce the residual substantially.
	g := gen.Path(32)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	b := randRHS(g.N, 2)
	// λmin of the path Laplacian ≈ 2(1−cos(π/n)) ≈ π²/n².
	lmin := 2 * (1 - math.Cos(math.Pi/float64(g.N)))
	x := chebyshev(0, lap, b, 200, lmin, 4, matrix.CopyVec, matrix.NewCompIndex(comp, k), nil)
	r := matrix.CopyVec(b)
	matrix.SubInto(r, r, lap.Apply(x))
	if matrix.Norm2(r)/matrix.Norm2(b) > 1e-3 {
		t.Fatalf("relative residual %v after 200 its", matrix.Norm2(r)/matrix.Norm2(b))
	}
}

func TestChebyshevFixedIterationCountIsLinear(t *testing.T) {
	// The Chebyshev operator with fixed iterations must be linear:
	// C(a·b1 + b2) = a·C(b1) + C(b2) (Lemma 6.7 requires this for the
	// recursion). Identity preconditioner, fixed bounds.
	g := gen.Grid2D(6, 6)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	apply := func(b []float64) []float64 {
		return chebyshev(0, lap, b, 5, 0.05, 8, matrix.CopyVec, matrix.NewCompIndex(comp, k), nil)
	}
	rng := rand.New(rand.NewSource(3))
	b1, b2 := make([]float64, g.N), make([]float64, g.N)
	for i := range b1 {
		b1[i], b2[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	matrix.ProjectOutConstant(b1)
	matrix.ProjectOutConstant(b2)
	alpha := 2.7
	combo := make([]float64, g.N)
	matrix.AxpyInto(combo, alpha, b1, b2)
	y1, y2, yc := apply(b1), apply(b2), apply(combo)
	for i := range yc {
		want := alpha*y1[i] + y2[i]
		if math.Abs(yc[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("nonlinear at %d: %v vs %v", i, yc[i], want)
		}
	}
}

func TestPCGZeroRHS(t *testing.T) {
	g := gen.Grid2D(5, 5)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	x, st := pcgFlexible(0, lap, make([]float64, g.N), matrix.CopyVec, matrix.NewCompIndex(comp, k), 1e-10, 100, nil, nil)
	if !st.Converged || st.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", st)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero x for zero rhs")
		}
	}
}

func TestPCGMaxIterRespected(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Grid2D(20, 20), 8, 6, 4)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	b := randRHS(g.N, 5)
	_, st := pcgFlexible(0, lap, b, matrix.CopyVec, matrix.NewCompIndex(comp, k), 1e-14, 7, nil, nil)
	if st.Iterations > 7 {
		t.Fatalf("iterations %d exceed maxIter", st.Iterations)
	}
	if st.Converged {
		t.Fatal("cannot converge to 1e-14 in 7 iterations on this system")
	}
}

// deepChainParams returns DefaultChainParams with the chain depth pinned by
// the explicit §6.3 size rule at ⌈m^(1/3)⌉+BottomFloor edges — the depth the
// default produced before the count-based rule replaced it. Suites that
// exist to cover the level ≥ 1 paths (Chebyshev sweeps, the recursion's
// cross-worker and block-vs-single determinism) build with it so they keep recursing through several levels;
// the default rule stops most testbed graphs at one.
func deepChainParams(g *graph.Graph) ChainParams {
	p := DefaultChainParams()
	p.BottomSizeEdges = int(math.Ceil(math.Cbrt(float64(g.M())))) + p.BottomFloor
	return p
}

func TestBuildChainBottomOnlyForSmallGraphs(t *testing.T) {
	g := gen.Grid2D(5, 5)
	ch, err := BuildChain(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Levels) != 0 {
		t.Fatalf("tiny graph built %d levels", len(ch.Levels))
	}
	// PrecondApply must be the exact bottom solve.
	b := randRHS(g.N, 6)
	x := ch.PrecondApply(b)
	lap := matrix.LaplacianOf(g)
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-8 {
			t.Fatalf("bottom-only precond inexact: %v", ax[i]-b[i])
		}
	}
}

func TestBuildChainKappaGrowthSchedule(t *testing.T) {
	g := gen.Grid2D(48, 48)
	p := deepChainParams(g)
	p.KappaGrowth = 2
	ch, err := BuildChain(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ch.Levels); i++ {
		if ch.Levels[i].Kappa < ch.Levels[i-1].Kappa {
			t.Fatalf("kappa not nondecreasing: %v then %v",
				ch.Levels[i-1].Kappa, ch.Levels[i].Kappa)
		}
	}
	if len(ch.Levels) < 3 {
		t.Fatalf("depth-pinned chain has %d levels; the schedule check needs several", len(ch.Levels))
	}
}

func TestBuildChainRejectsOversizedBottom(t *testing.T) {
	g := gen.Grid2D(30, 30)
	p := DefaultChainParams()
	p.MaxLevels = 1
	p.MaxBottomVertices = 10 // impossible
	p.ShrinkRetry = 0.0001   // force immediate truncation
	if _, err := BuildChain(g, p, nil); err == nil {
		t.Fatal("expected bottom-size error")
	}
}

func TestChainBottomSolvesCounted(t *testing.T) {
	g := gen.Grid2D(32, 32)
	ch, err := BuildChain(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.BottomSolves()
	ch.PrecondApply(randRHS(g.N, 7))
	if ch.BottomSolves() <= before {
		t.Fatal("bottom solves not counted")
	}
}

func TestMergeParallelCombinesEdges(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2}, // parallel, reversed
		{U: 1, V: 1, W: 5}, // self-loop: dropped
		{U: 1, V: 2, W: 3},
	})
	m := mergeParallel(g)
	if m.M() != 2 {
		t.Fatalf("merged M = %d, want 2", m.M())
	}
	total := m.TotalWeight()
	if total != 6 { // 1+2 merged + 3
		t.Fatalf("merged weight %v, want 6", total)
	}
}

func TestSolverChainDeterministicForSeed(t *testing.T) {
	g := gen.Grid2D(24, 24)
	build := func() []int {
		ch, err := BuildChain(g, DefaultChainParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ch.EdgeCounts()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("chain depths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chain counts differ at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSolveRepeatedRHSReusesChain(t *testing.T) {
	// Solving several right-hand sides against one Solver must all converge
	// (the chain is stateless across solves).
	g := gen.Grid2D(16, 16)
	s, err := New(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		b := randRHS(g.N, 100+seed)
		x, st := s.Solve(b, 1e-8)
		if !st.Converged {
			t.Fatalf("seed %d: not converged", seed)
		}
		if res := s.Residual(x, b); res > 1e-6 {
			t.Fatalf("seed %d: residual %v", seed, res)
		}
	}
}

func TestSparsifyPreservesComponents(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i+1 < 40; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
		edges = append(edges, graph.Edge{U: 50 + i, V: 50 + i + 1, W: 1})
	}
	g := graph.FromEdges(100, edges)
	rng := rand.New(rand.NewSource(8))
	res := IncrementalSparsify(g, DefaultSparsifyParams(), rng, nil)
	ca, ka := g.ConnectedComponents()
	cb, kb := res.H.ConnectedComponents()
	if ka != kb {
		t.Fatalf("components changed: %d -> %d", ka, kb)
	}
	remap := map[int]int{}
	for v := range ca {
		if w, ok := remap[ca[v]]; ok {
			if w != cb[v] {
				t.Fatal("component structure changed")
			}
		} else {
			remap[ca[v]] = cb[v]
		}
	}
}

func TestEliminationDisconnectedGraph(t *testing.T) {
	// Isolated vertices and tiny components must eliminate cleanly.
	g := graph.FromEdges(7, []graph.Edge{
		{U: 0, V: 1, W: 2},                     // pair
		{U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}, // path of 3
		// 5, 6 isolated
	})
	rng := rand.New(rand.NewSource(9))
	el := GreedyElimination(g, rng, nil)
	if el.Reduced.N != 0 {
		t.Fatalf("everything is degree <= 2, reduced to %d", el.Reduced.N)
	}
	// Solve L x = b with b in range (per-component mean zero).
	b := []float64{1, -1, 2, -1, -1, 0, 0}
	red, carry := el.ForwardRHS(b)
	if len(red) != 0 {
		t.Fatalf("reduced rhs nonempty: %v", red)
	}
	x := el.BackSolve(nil, carry)
	lap := matrix.LaplacianOf(g)
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-9 {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}

func TestEliminationWeightedSplice(t *testing.T) {
	// Series conductances: path u—v—w with conductances 2 and 3 splices to
	// 2·3/(2+3) = 1.2.
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	rng := rand.New(rand.NewSource(10))
	el := GreedyElimination(g, rng, nil)
	// Everything is degree ≤ 2 so the graph empties, but the intermediate
	// splice is exercised via the op log; verify solve correctness instead.
	b := []float64{1, 0, -1}
	red, carry := el.ForwardRHS(b)
	_ = red
	x := el.BackSolve(make([]float64, len(el.Keep)), carry)
	lap := matrix.LaplacianOf(g)
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-9 {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}
