package solver

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/wd"
)

// randRHS returns a mean-zero right-hand side.
func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	matrix.ProjectOutConstant(b)
	return b
}

// --- GreedyEliminationW ---

func TestEliminatePathToNothing(t *testing.T) {
	// A path is all degree ≤ 2: elimination should reduce it to nothing
	// (or nearly), in O(log n) rounds.
	g := gen.Path(256)
	rng := rand.New(rand.NewSource(1))
	el := GreedyEliminationW(0, g, rng, nil)
	if el.Reduced.N > 2 {
		t.Fatalf("path reduced to %d vertices", el.Reduced.N)
	}
	if el.Rounds > 60 {
		t.Fatalf("path elimination took %d rounds", el.Rounds)
	}
}

func TestEliminateLeavesHighDegreeCore(t *testing.T) {
	// A 3-regular-ish core must survive: elimination removes only deg ≤ 2.
	g := gen.Complete(6) // all degree 5
	rng := rand.New(rand.NewSource(2))
	el := GreedyEliminationW(0, g, rng, nil)
	if el.Reduced.N != 6 {
		t.Fatalf("K6 lost vertices: %d", el.Reduced.N)
	}
	if el.Reduced.M() != 15 {
		t.Fatalf("K6 lost edges: %d", el.Reduced.M())
	}
}

func TestEliminateTreePlusEdges(t *testing.T) {
	// Lemma 6.5: a graph with n vertices and n−1+m edges reduces to at most
	// ~2m−2 vertices... our greedy variant reaches the 2-core; verify the
	// reduced graph has min degree ≥ 3 and size O(m).
	rng := rand.New(rand.NewSource(3))
	n := 500
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: 1 + rng.Float64()})
	}
	extra := 20
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	g := graph.FromEdges(n, edges)
	el := GreedyEliminationW(0, g, rng, nil)
	for v := 0; v < el.Reduced.N; v++ {
		// Degrees in the reduced multigraph (parallels already merged).
		if el.Reduced.Degree(v) <= 2 {
			t.Fatalf("reduced vertex %d has degree %d", v, el.Reduced.Degree(v))
		}
	}
	if el.Reduced.N > 4*extra {
		t.Fatalf("reduced size %d not O(extra=%d)", el.Reduced.N, extra)
	}
}

// TestEliminationRoundsLogarithmic is Lemma 6.5: greedy elimination of a
// graph with n vertices and n−1+j edges leaves at most 2j−2 vertices and
// 3j−3 edges, in O(log n) rounds. On random trees plus j ∈ {0, 16, 64}
// edges at n ∈ {256, 1024} the rounds measure 9–21 against the pinned
// 3·log₂n = 24/30, a 1.4× margin at n = 1024; the reduced graphs measure
// 0/15/73 and 0/18/81 vertices. The asserted sizes are 2j and 3j: the
// lemma's −2 and −3 do not hold at j = 0, where the graph vanishes. Rounds
// and sizes do not depend on the worker count.
func TestEliminationRoundsLogarithmic(t *testing.T) {
	workers := testWorkers(t)
	// Rounds grow like log n on paths.
	rng := rand.New(rand.NewSource(4))
	r1 := GreedyEliminationW(workers, gen.Path(1<<8), rng, nil).Rounds
	r2 := GreedyEliminationW(workers, gen.Path(1<<12), rng, nil).Rounds
	if r2 > r1*4 {
		t.Fatalf("rounds scaled badly: %d (n=2^8) vs %d (n=2^12)", r1, r2)
	}
	for _, n := range []int{256, 1024} {
		for _, extra := range []int{0, 16, 64} {
			rng := rand.New(rand.NewSource(1))
			var edges []graph.Edge
			for i := 1; i < n; i++ {
				edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: 1})
			}
			for i := 0; i < extra; i++ {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					edges = append(edges, graph.Edge{U: u, V: v, W: 1})
				}
			}
			j := len(edges) - (n - 1)
			el := GreedyEliminationW(workers, graph.FromEdges(n, edges), rng, nil)
			if bound := 3 * math.Log2(float64(n)); float64(el.Rounds) > bound {
				t.Fatalf("n=%d j=%d: %d rounds > 3·log₂n = %.0f", n, j, el.Rounds, bound)
			}
			if el.Reduced.N > 2*j || el.Reduced.M() > 3*j {
				t.Fatalf("n=%d j=%d: reduced to %d vertices, %d edges; want at most %d, %d",
					n, j, el.Reduced.N, el.Reduced.M(), 2*j, 3*j)
			}
		}
	}
}

func TestEliminateBackSolveExact(t *testing.T) {
	// Eliminating and back-solving with an exact reduced solve must solve
	// the original system exactly.
	g := gen.WithUniformWeights(gen.Grid2D(8, 8), 0.5, 2, 5)
	rng := rand.New(rand.NewSource(6))
	el := GreedyEliminationW(0, g, rng, nil)
	lap := matrix.LaplacianOf(g)
	b := randRHS(g.N, 7)
	red, carry := forwardRHS(el, 0, b)
	// Exact reduced solve.
	comp, k := el.Reduced.ConnectedComponents()
	lf, err := matrix.NewLaplacianFactorW(0, matrix.LaplacianOf(el.Reduced), comp, k)
	if err != nil {
		t.Fatal(err)
	}
	xr := lf.Solve(red)
	x := backSolve(el, 0, xr, carry)
	res := lap.Apply(x)
	for i := range b {
		if math.Abs(res[i]-b[i]) > 1e-7 {
			t.Fatalf("residual %v at %d", res[i]-b[i], i)
		}
	}
}

func TestEliminateBackSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.WithUniformWeights(gen.GNP(80, 0.04, seed), 0.5, 4, seed+1)
		el := GreedyEliminationW(0, g, rng, nil)
		lap := matrix.LaplacianOf(g)
		b := randRHS(g.N, seed+2)
		// Project b per component of g (null space of L).
		comp, k := g.ConnectedComponents()
		matrix.ProjectOutConstantMaskedW(0, b, comp, k)
		red, carry := forwardRHS(el, 0, b)
		rcomp, rk := el.Reduced.ConnectedComponents()
		lf, err := matrix.NewLaplacianFactorW(0, matrix.LaplacianOf(el.Reduced), rcomp, rk)
		if err != nil {
			return false
		}
		x := backSolve(el, 0, lf.Solve(red), carry)
		res := lap.Apply(x)
		for i := range b {
			if math.Abs(res[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEliminationOpsIndependentWithinRounds(t *testing.T) {
	g := gen.Grid2D(12, 12)
	rng := rand.New(rand.NewSource(8))
	el := GreedyEliminationW(0, g, rng, nil)
	start := 0
	for _, end := range el.RoundEnd {
		touched := make(map[int32]bool)
		for _, op := range el.Ops[start:end] {
			if touched[op.V] {
				t.Fatal("vertex eliminated twice in a round")
			}
			touched[op.V] = true
		}
		for _, op := range el.Ops[start:end] {
			if op.Kind == ElimDeg1 && touched[op.A] {
				t.Fatal("deg1 neighbor also eliminated in same round")
			}
			if op.Kind == ElimDeg2 && (touched[op.A] || touched[op.B]) {
				t.Fatal("deg2 neighbor also eliminated in same round")
			}
		}
		start = end
	}
}

// --- IncrementalSparsify ---

func TestSparsifyShrinksAndSpans(t *testing.T) {
	g := gen.Torus2D(32, 32)
	rng := rand.New(rand.NewSource(9))
	res := IncrementalSparsify(g, DefaultSparsifyParams(), rng, nil)
	if res.H.M() >= g.M() {
		t.Fatalf("sparsifier did not shrink: %d >= %d", res.H.M(), g.M())
	}
	if !res.H.IsConnected() {
		t.Fatal("H lost connectivity")
	}
}

func TestSparsifySpectralSandwich(t *testing.T) {
	// Empirical Lemma 6.1 check via generalized Rayleigh quotients on random
	// vectors: 1 ≲ xᵀHx/xᵀGx ≲ O(κ) for x ⊥ 1. Random vectors cannot prove
	// the eigenvalue bound but wild violations would show up immediately.
	g := gen.Grid2D(24, 24)
	rng := rand.New(rand.NewSource(10))
	p := DefaultSparsifyParams()
	res := IncrementalSparsify(g, p, rng, nil)
	lg := matrix.LaplacianOf(g)
	lh := matrix.LaplacianOf(res.H)
	for trial := 0; trial < 30; trial++ {
		x := randRHS(g.N, int64(100+trial))
		qg, qh := lg.QuadForm(x), lh.QuadForm(x)
		ratio := qh / qg
		if ratio < 0.5 {
			t.Fatalf("H much smaller than G: ratio %v (violates G ⪯ H)", ratio)
		}
		if ratio > 50*p.Kappa {
			t.Fatalf("H much larger than κG: ratio %v vs κ=%v", ratio, p.Kappa)
		}
	}
}

// TestSparsifyKappaTradeoff is Lemma 6.1's size bound: H holds Ĝ plus
// O(S·log n/κ) sampled edges, S being the total stretch. On a 32² torus the
// sampled count falls about as 1/κ — 407/148/37/9 at κ = 16/64/256/1024 —
// and the pins ask that each 4× in κ at least halve it (measured
// 2.8–4.1×) and that it stay under the expected count C·S·ln n/κ of the
// oversampling rule, which it meets at 0.30–0.43 of that. The code departs
// from the paper in its oversampling constant C = 0.15 (OversampleC),
// tuned rather than the whp constant of the KMP analysis. The spectral
// half of the lemma is TestSparsifySpectralSandwich.
func TestSparsifyKappaTradeoff(t *testing.T) {
	g := gen.Torus2D(32, 32)
	prev := 0
	for _, kappa := range []float64{16, 64, 256, 1024} {
		p := DefaultSparsifyParams()
		p.Kappa = kappa
		res := IncrementalSparsify(g, p, rand.New(rand.NewSource(1)), nil)
		if res.H.M() != len(res.Subgraph)+res.Sampled {
			t.Fatalf("κ=%v: |E(H)| = %d, want |E(Ĝ)| + sampled = %d + %d",
				kappa, res.H.M(), len(res.Subgraph), res.Sampled)
		}
		total := res.StretchS * float64(g.M())
		if want := p.OversampleC * total * math.Log(float64(g.N)) / kappa; float64(res.Sampled) > want {
			t.Fatalf("κ=%v: sampled %d > C·S·ln n/κ = %.0f", kappa, res.Sampled, want)
		}
		if prev > 0 && 2*res.Sampled > prev {
			t.Fatalf("κ=%v: sampled %d, more than half of %d at κ/4", kappa, res.Sampled, prev)
		}
		prev = res.Sampled
	}
}

// --- Chain ---

func TestBuildChainShape(t *testing.T) {
	g := gen.Grid2D(40, 40)
	ch, err := BuildChain(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := ch.EdgeCounts()
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("chain grew at level %d: %v", i, counts)
		}
	}
	if ch.BottomG.N > DefaultChainParams().MaxBottomVertices {
		t.Fatalf("bottom too large: %d", ch.BottomG.N)
	}
}

func TestChainPrecondReducesError(t *testing.T) {
	// One preconditioner application must reduce the A-norm error of the
	// zero iterate substantially (it is an approximate inverse).
	g := gen.Grid2D(24, 24)
	ch, err := BuildChain(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lap := matrix.LaplacianOf(g)
	b := randRHS(g.N, 12)
	z := precondApply(ch, b)
	// Rayleigh check: z should positively correlate with the true solution
	// direction: zᵀb > 0 strongly.
	if matrix.Dot(z, b) <= 0 {
		t.Fatal("preconditioner output not positively correlated with rhs")
	}
	// A z should not be wildly off b in scale.
	az := lap.Apply(z)
	num := matrix.Dot(az, b) / (matrix.Norm2W(0, az) * matrix.Norm2W(0, b))
	if num < 0.1 {
		t.Fatalf("preconditioned direction nearly orthogonal to b: cos=%v", num)
	}
}

// --- Solver end to end ---

func solveAndCheck(t *testing.T, g *graph.Graph, eps float64) SolveStats {
	t.Helper()
	s, err := New(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(g.N, 13)
	x, st := s.Solve(b, eps)
	res := s.Residual(x, b)
	if res > eps*10 {
		t.Fatalf("residual %v after %d iterations (target %v)", res, st.Iterations, eps)
	}
	return st
}

func TestSolveGrid(t *testing.T) {
	solveAndCheck(t, gen.Grid2D(32, 32), 1e-8)
}

func TestSolveWeightedGrid(t *testing.T) {
	solveAndCheck(t, gen.WithUniformWeights(gen.Grid2D(24, 24), 0.01, 100, 14), 1e-8)
}

func TestSolveGNP(t *testing.T) {
	solveAndCheck(t, gen.GNP(800, 0.01, 15), 1e-8)
}

func TestSolvePathOfCliques(t *testing.T) {
	solveAndCheck(t, gen.PathOfCliques(8, 40), 1e-8)
}

func TestSolve3DGrid(t *testing.T) {
	solveAndCheck(t, gen.Grid3D(10, 10, 10), 1e-6)
}

func TestSolveDisconnected(t *testing.T) {
	var edges []graph.Edge
	off := 0
	for c := 0; c < 3; c++ {
		for i := 0; i+1 < 50; i++ {
			edges = append(edges, graph.Edge{U: off + i, V: off + i + 1, W: 1})
		}
		off += 50
	}
	g := graph.FromEdges(150, edges)
	s, err := New(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(g.N, 16)
	comp, k := g.ConnectedComponents()
	matrix.ProjectOutConstantMaskedW(0, b, comp, k)
	x, _ := s.Solve(b, 1e-8)
	if res := s.Residual(x, b); res > 1e-6 {
		t.Fatalf("disconnected residual %v", res)
	}
}

// TestSolveEpsilonSweep is Theorem 1.1's log(1/ε) factor: on a 64² grid
// the outer iterations grow linearly in the digits of accuracy, measuring
// 29/51/72/93/115 at ε = 1e-2…1e-10. The pins ask for at most 40 at 1e-2
// and for each further two digits to add 15–30 (measured 21–22).
// Iteration counts do not depend on the worker count.
func TestSolveEpsilonSweep(t *testing.T) {
	g := gen.Grid2D(64, 64)
	s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: testWorkers(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(g.N, 1)
	prev := 0
	for _, eps := range []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10} {
		_, st := s.Solve(b, eps)
		if !st.Converged {
			t.Fatalf("ε=%g: not converged after %d iterations", eps, st.Iterations)
		}
		if prev == 0 && st.Iterations > 40 {
			t.Fatalf("ε=%g: %d iterations, want at most 40", eps, st.Iterations)
		}
		if d := st.Iterations - prev; prev > 0 && (d < 15 || d > 30) {
			t.Fatalf("ε=%g: two more digits took %d more iterations (%d → %d), want 15–30",
				eps, d, prev, st.Iterations)
		}
		prev = st.Iterations
	}
}

func TestBaselinesConverge(t *testing.T) {
	g := gen.Grid2D(16, 16)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	b := randRHS(g.N, 20)
	x, st := CG(lap, b, comp, k, 1e-8, 10000, nil)
	if !st.Converged {
		t.Fatalf("CG did not converge: %v", st.Residual)
	}
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-5 {
			t.Fatalf("CG residual at %d: %v", i, ax[i]-b[i])
		}
	}
	_, st2 := JacobiPCG(lap, b, comp, k, 1e-8, 10000, nil)
	if !st2.Converged {
		t.Fatalf("Jacobi-PCG did not converge: %v", st2.Residual)
	}
}

// TestChainBeatsCGIterationsIllConditioned is Theorem 1.1's practical
// face: on an ill-conditioned weighted grid (exponentially spread weight
// classes — the regime where low-stretch structure matters), the
// chain-preconditioned solver needs far fewer iterations than plain CG and
// than Jacobi-PCG. Measured 85 chain against 4050 Jacobi-PCG and 11 895 CG
// iterations; the pin asks for at most a tenth of Jacobi-PCG's, a 4.8×
// margin.
func TestChainBeatsCGIterationsIllConditioned(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Grid2D(40, 40), 8, 8, 21)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	b := randRHS(g.N, 22)
	_, cgStats := CG(lap, b, comp, k, 1e-8, 20000, nil)
	s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: testWorkers(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, chStats := s.Solve(b, 1e-8)
	if chStats.Iterations >= cgStats.Iterations {
		t.Fatalf("chain (%d iters) did not beat CG (%d iters)", chStats.Iterations, cgStats.Iterations)
	}
	_, jStats := JacobiPCG(lap, b, comp, k, 1e-8, 20000, nil)
	if 10*chStats.Iterations > jStats.Iterations {
		t.Fatalf("chain (%d iters) not within a tenth of Jacobi-PCG (%d iters)", chStats.Iterations, jStats.Iterations)
	}
}

func TestSDDSolverLaplacianPassThrough(t *testing.T) {
	g := gen.Grid2D(12, 12)
	lap := matrix.LaplacianOf(g)
	s, err := NewSDD(lap, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.direct {
		t.Fatal("Laplacian input should bypass Gremban")
	}
	b := randRHS(g.N, 23)
	x, _ := s.Solve(b, 1e-8)
	ax := lap.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-5 {
			t.Fatalf("residual %v", ax[i]-b[i])
		}
	}
}

func TestSDDSolverGeneral(t *testing.T) {
	// SDD matrix with positive off-diagonals and slack: route via Gremban.
	n := 40
	var rows, cols []int
	var vals []float64
	add := func(r, c int, v float64) {
		rows = append(rows, r)
		cols = append(cols, c)
		vals = append(vals, v)
	}
	for i := 0; i < n; i++ {
		diag := 0.1
		if i > 0 {
			sign := 1.0
			if i%3 == 0 {
				sign = -1
			}
			add(i, i-1, sign*1.0)
			add(i-1, i, sign*1.0)
			diag += 1
		}
		if i < n-1 {
			diag += 1
		}
		add(i, i, diag)
	}
	a, err := matrix.NewSparseFromTriplets(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSDD(a, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(n, 24)
	x, _ := s.Solve(b, 1e-9)
	ax := a.Apply(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-5 {
			t.Fatalf("SDD residual %v at %d", ax[i]-b[i], i)
		}
	}
}

// TestSolverWorkDepthRecorded: the recorder passed to New counts
// construction only, and a solve reports its own work and depth in
// SolveStats without touching it.
func TestSolverWorkDepthRecorded(t *testing.T) {
	var rec wd.Recorder
	g := gen.Grid2D(24, 24)
	s, err := New(g, DefaultChainParams(), &rec)
	if err != nil {
		t.Fatal(err)
	}
	build, buildDepth := rec.Work(), rec.Depth()
	if build == 0 {
		t.Fatal("construction recorded no work")
	}
	b := randRHS(g.N, 25)
	_, st := s.Solve(b, 1e-6)
	if st.Work == 0 || st.Depth == 0 {
		t.Fatalf("solve reported work %d depth %d", st.Work, st.Depth)
	}
	if rec.Work() != build || rec.Depth() != buildDepth {
		t.Fatalf("solve charged the construction recorder: work %d -> %d", build, rec.Work())
	}
}

func TestSolveZeroRHS(t *testing.T) {
	g := gen.Grid2D(8, 8)
	s, err := New(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, st := s.Solve(make([]float64, g.N), 1e-8)
	if !st.Converged {
		t.Fatal("zero rhs should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
}

func TestSolveConstantRHSProjected(t *testing.T) {
	// b = 1 is pure null space: solution is 0 after projection.
	g := gen.Grid2D(8, 8)
	s, err := New(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N)
	for i := range b {
		b[i] = 3.5
	}
	x, st := s.Solve(b, 1e-8)
	if !st.Converged {
		t.Fatal("constant rhs should converge immediately after projection")
	}
	for _, v := range x {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("nonzero solution %v for null-space rhs", v)
		}
	}
}

// TestSolverSharesChainTop: the Solver's operator and component index are
// the chain's top-level objects, not a second copy — level 0's for a chain
// with levels, the bottom graph's for a chain with none — on a built solver
// and on one reassembled from its snapshot. The snapshot does not carry the
// top-level graph: restore recomputes it from the input graph.
func TestSolverSharesChainTop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		levels bool
	}{
		{"levels", gen.Grid2D(20, 20), true},
		{"no-level", gen.Grid2D(8, 8), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := deepChainParams(tc.g)
			built, err := NewWithOptions(tc.g, p, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := AssembleSnapshot(built.Snapshot(), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Solver{built, restored} {
				if got := s.Chain.Depth() > 0; got != tc.levels {
					t.Fatalf("chain has levels = %v, want %v", got, tc.levels)
				}
				lap, ci := s.Chain.Top()
				if s.Lap != lap || s.CompIdx != ci || &s.Comp[0] != &ci.Comp[0] || s.NumComp != ci.NumComp {
					t.Fatal("solver does not share the chain's top-level operator and component index")
				}
				if tc.levels && (lap != s.Chain.Levels[0].Lap || ci != s.Chain.Levels[0].CompIdx) {
					t.Fatal("Top is not level 0's operator")
				}
			}
			rtop := restored.Chain.BottomG
			if tc.levels {
				rtop = restored.Chain.Levels[0].G
			}
			if want := mergeParallelW(0, tc.g); rtop.N != want.N || !slices.Equal(rtop.Edges, want.Edges) {
				t.Fatal("restored top-level graph is not the merged input graph")
			}
		})
	}
}
