package parlap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parlap/internal/apps"
	"parlap/internal/decomp"
	"parlap/internal/gen"
	"parlap/internal/lowstretch"
	"parlap/internal/matrix"
	"parlap/internal/solver"
)

// TestPipelineDecompToTreeToSolver exercises the full stack the way the
// paper composes it: Section 4's decomposition drives Section 5's tree
// construction, which feeds Section 6's sparsifier and solver.
func TestPipelineDecompToTreeToSolver(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Torus2D(24, 24), 8, 4, 1)
	// Stage 1: decomposition invariants.
	rng := rand.New(rand.NewSource(2))
	res := decomp.SplitGraph(g, 12, decomp.PracticalParams(), rng, nil)
	for _, r := range decomp.StrongRadius(g, res) {
		if r > 12 {
			t.Fatalf("stage 1: radius %d > 12", r)
		}
	}
	// Stage 2: low-stretch subgraph over the length view.
	lengths := make([]Edge, g.M())
	for i, e := range g.Edges {
		lengths[i] = Edge{U: e.U, V: e.V, W: 1 / e.W}
	}
	lg := NewGraph(g.N, lengths)
	sub, _ := lowstretch.LSSubgraph(lg, lowstretch.PracticalParams(), rng, nil)
	st := lowstretch.SubgraphStretchSampled(lg, sub.EdgeIDs(), 200, rng)
	if math.IsInf(st.Max, 1) {
		t.Fatal("stage 2: subgraph does not span")
	}
	// Stage 3: solve on the conductance graph.
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N)
	r2 := rand.New(rand.NewSource(3))
	for i := range b {
		b[i] = r2.NormFloat64()
	}
	matrix.ProjectOutConstant(b)
	x, stats := s.Solve(b, 1e-8)
	if !stats.Converged {
		t.Fatalf("stage 3: solver did not converge (%v)", stats.Residual)
	}
	if res := s.Residual(x, b); res > 1e-6 {
		t.Fatalf("stage 3: residual %v", res)
	}
}

// TestSolverPropertyRandomGraphs drives the full solver over random
// connected weighted graphs: the returned solution must always satisfy the
// residual contract.
func TestSolverPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + int(seed%101+101)%101
		g := gen.WithUniformWeights(gen.GNP(n, 0.05, seed), 0.1, 10, seed+1)
		s, err := solver.New(g, solver.DefaultChainParams(), nil)
		if err != nil {
			return false
		}
		b := make([]float64, g.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		matrix.ProjectOutConstant(b)
		x, _ := s.Solve(b, 1e-7)
		return s.Residual(x, b) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSolverAgainstDenseOnWeightedGraphs cross-validates the chain solver
// against the dense pseudo-inverse on small random weighted graphs.
func TestSolverAgainstDenseOnWeightedGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.WithUniformWeights(gen.GNP(50, 0.1, seed), 0.5, 5, seed+1)
		lap := matrix.LaplacianOf(g)
		comp, k := g.ConnectedComponents()
		lf, err := matrix.NewLaplacianFactorW(0, lap, comp, k)
		if err != nil {
			return false
		}
		s, err := solver.New(g, solver.DefaultChainParams(), nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 2))
		b := make([]float64, g.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		matrix.ProjectOutConstantMaskedIdxW(0, b, matrix.NewCompIndexW(0, comp, k))
		want := lf.Solve(b)
		got, _ := s.Solve(b, 1e-10)
		matrix.ProjectOutConstantMaskedIdxW(0, got, matrix.NewCompIndexW(0, comp, k))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFlowNeverExceedsExact is the safety direction of the [CKM+10]
// approximation across random instances: the electrical-flow answer is
// always feasible, hence ≤ the exact max-flow value.
func TestMaxFlowNeverExceedsExact(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.WithUniformWeights(gen.GNP(30, 0.2, seed), 1, 5, seed+1)
		s, tt := 0, g.N-1
		exact := apps.MaxFlowExact(g, s, tt)
		res, err := apps.ApproxMaxFlow(g, s, tt, 0.15, 10)
		if err != nil {
			return false
		}
		if res.Value > exact+1e-6 {
			return false
		}
		return apps.MaxCongestion(g, res.Flow) <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEffectiveResistanceTriangleInequality: effective resistance is a
// metric, so R(u,w) ≤ R(u,v) + R(v,w) must hold for solver-computed values.
func TestEffectiveResistanceTriangleInequality(t *testing.T) {
	g := gen.GNP(80, 0.1, 9)
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		u, v, w := rng.Intn(g.N), rng.Intn(g.N), rng.Intn(g.N)
		if u == v || v == w || u == w {
			continue
		}
		ruv := apps.EffectiveResistance(s, g.N, u, v, 1e-10)
		rvw := apps.EffectiveResistance(s, g.N, v, w, 1e-10)
		ruw := apps.EffectiveResistance(s, g.N, u, w, 1e-10)
		if ruw > ruv+rvw+1e-8 {
			t.Fatalf("triangle inequality violated: R(%d,%d)=%v > %v + %v",
				u, w, ruw, ruv, rvw)
		}
	}
}

// TestStretchSolverConnection validates the identity the solver's sampling
// relies on: for tree edges, stretch 1 and effective resistance equals the
// tree-path resistance.
func TestStretchSolverConnection(t *testing.T) {
	g := gen.WithUniformWeights(gen.Grid2D(8, 8), 1, 3, 11)
	// Length view tree.
	lengths := make([]Edge, g.M())
	for i, e := range g.Edges {
		lengths[i] = Edge{U: e.U, V: e.V, W: 1 / e.W}
	}
	lg := NewGraph(g.N, lengths)
	tree := lg.MSTKruskal()
	ti := lowstretch.NewTreeIndex(lg, tree)
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rayleigh monotonicity: R_eff in g ≤ tree-path resistance.
	for _, id := range tree[:10] {
		e := g.Edges[id]
		reff := apps.EffectiveResistance(s, g.N, e.U, e.V, 1e-10)
		pathR := ti.Dist(e.U, e.V)
		if reff > pathR+1e-8 {
			t.Fatalf("edge %d: R_eff %v exceeds tree path resistance %v", id, reff, pathR)
		}
	}
}
