package solver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// TestChebyshevFixedIterationCountIsLinear checks the property Lemma 6.7's
// recursion rests on: a level's Chebyshev sweep runs a fixed iteration
// count over a preconditioner that is itself such a sweep (down to an
// exact bottom solve), so it is a linear operator —
// C(a·b1 + b2) = a·C(b1) + C(b2) up to roundoff.
func TestChebyshevFixedIterationCountIsLinear(t *testing.T) {
	g := gen.Grid2D(24, 24)
	ch, err := BuildChain(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Levels) < 2 {
		t.Fatalf("depth-pinned chain has %d levels; the level-1 sweep needs two", len(ch.Levels))
	}
	n := ch.Levels[1].G.N
	ws := newWorkspace(ch, 1)
	apply := func(b []float64) []float64 {
		bb := matrix.VecBlock(b)
		return matrix.CopyVec(ch.chebLevelBlock(1, 1, &bb, ws).Vec())
	}
	rng := rand.New(rand.NewSource(3))
	b1, b2 := make([]float64, n), make([]float64, n)
	for i := range b1 {
		b1[i], b2[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	alpha := 2.7
	combo := make([]float64, n)
	matrix.AxpyIntoW(0, combo, alpha, b1, b2)
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
	x, st := CG(lap, make([]float64, g.N), comp, k, 1e-10, 100, nil)
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
	_, st := CG(lap, b, comp, k, 1e-14, 7, nil)
	if st.Iterations > 7 {
		t.Fatalf("iterations %d exceed maxIter", st.Iterations)
	}
	if st.Converged {
		t.Fatal("cannot converge to 1e-14 in 7 iterations on this system")
	}
}

// deepChainParams returns DefaultChainParams with the chain depth pinned by
// the explicit §6.3 size rule at ⌈m^(1/3)⌉+bottomFloor edges — the depth the
// default produced before the count-based rule replaced it. Suites that
// exist to cover the level ≥ 1 paths (Chebyshev sweeps, the recursion's
// cross-worker and block-vs-single determinism) build with it so they keep recursing through several levels;
// the default rule stops most testbed graphs at one.
func deepChainParams(g *graph.Graph) ChainParams {
	p := DefaultChainParams()
	p.BottomSizeEdges = int(math.Ceil(math.Cbrt(float64(g.M())))) + bottomFloor
	return p
}

// precondApply runs PrecondApplyIntoW at the chain's own worker count into
// a freshly allocated result.
func precondApply(c *Chain, r []float64) []float64 {
	z := make([]float64, len(r))
	c.PrecondApplyIntoW(c.Opt.Workers, r, z)
	return z
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
	// The preconditioner must be the exact bottom solve.
	b := randRHS(g.N, 6)
	x := precondApply(ch, b)
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

// TestZeroParamsTakeDefaults: a ChainParams with only Sparsify, Seed and
// BottomSizeEdges set builds exactly the chain DefaultChainParams() with
// that BottomSizeEdges builds — every zero field takes the default's value
// — on a chain pinned deep enough (two levels) for the depth, κ-growth and
// shrink-retry settings to matter. (The count-based default cuts this graph
// at level 1, so the depth is set with the size rule.)
func TestZeroParamsTakeDefaults(t *testing.T) {
	g := gen.RandomRegular(600, 8, 1)
	def := DefaultChainParams()
	def.BottomSizeEdges = 200
	build := func(p ChainParams) *Solver {
		s, err := NewWithOptions(g, p, Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := build(def)
	got := build(ChainParams{Sparsify: def.Sparsify, Seed: def.Seed, BottomSizeEdges: def.BottomSizeEdges})
	if len(ref.Chain.Levels) < 2 {
		t.Fatalf("default chain has %d levels; the test needs two", len(ref.Chain.Levels))
	}
	if e, w := got.Chain.EdgeCounts(), ref.Chain.EdgeCounts(); !reflect.DeepEqual(e, w) {
		t.Fatalf("edge counts %v, want %v", e, w)
	}
	if sg, sr := got.Chain.Schedule(), ref.Chain.Schedule(); !reflect.DeepEqual(sg, sr) {
		t.Fatalf("schedule %+v, want %+v", sg, sr)
	}
	if got.Chain.Params != def {
		t.Fatalf("recorded params %+v, want the defaults %+v", got.Chain.Params, def)
	}
	b := randRHS(g.N, 9)
	x, st := got.Solve(b, 1e-8)
	xRef, stRef := ref.Solve(b, 1e-8)
	if st.Iterations != stRef.Iterations {
		t.Fatalf("%d iterations, want %d", st.Iterations, stRef.Iterations)
	}
	for i := range xRef {
		if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
			t.Fatalf("solve differs from the default chain's at entry %d", i)
		}
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

// TestChainBottomSolvesCounted: every bottom solve counts, including the
// direct solve that is the whole preconditioner of a chain with no level
// (the 8² grid).
func TestChainBottomSolvesCounted(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Grid2D(32, 32), gen.Grid2D(8, 8)} {
		ch, err := BuildChain(g, DefaultChainParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		before := ch.BottomSolves()
		precondApply(ch, randRHS(g.N, 7))
		if ch.BottomSolves() <= before {
			t.Fatalf("n=%d, %d levels: bottom solves not counted", g.N, ch.Depth())
		}
	}
}

func TestMergeParallelCombinesEdges(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2}, // parallel, reversed
		{U: 1, V: 1, W: 5}, // self-loop: dropped
		{U: 1, V: 2, W: 3},
	})
	m := mergeParallelW(0, g)
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
	el := GreedyEliminationW(0, g, rng, nil)
	if el.Reduced.N != 0 {
		t.Fatalf("everything is degree <= 2, reduced to %d", el.Reduced.N)
	}
	// Solve L x = b with b in range (per-component mean zero).
	b := []float64{1, -1, 2, -1, -1, 0, 0}
	red, carry := forwardRHS(el, 0, b)
	if len(red) != 0 {
		t.Fatalf("reduced rhs nonempty: %v", red)
	}
	x := backSolve(el, 0, nil, carry)
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
	el := GreedyEliminationW(0, g, rng, nil)
	// Everything is degree ≤ 2 so the graph empties, but the intermediate
	// splice is exercised via the op log; verify solve correctness instead.
	b := []float64{1, 0, -1}
	red, carry := forwardRHS(el, 0, b)
	_ = red
	x := backSolve(el, 0, make([]float64, len(el.Keep)), carry)
	lap := matrix.LaplacianOf(g)
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-9 {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}
