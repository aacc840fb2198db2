// Top-level benchmarks: one per experiment of cmd/experiments (E1–E10, which
// prints the corresponding tables), plus the scaling suite. The paper (SPAA
// 2011) has no empirical tables; each bench regenerates the measurable claim
// of the corresponding theorem/lemma. Run with
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline quantity (cut
// fraction, average stretch, iterations, ...) so `-bench` output doubles as
// the experiment record.
package parlap

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"parlap/internal/apps"
	"parlap/internal/decomp"
	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/lowstretch"
	"parlap/internal/matrix"
	"parlap/internal/solver"
	"parlap/internal/wd"
)

func benchRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	matrix.ProjectOutConstant(b)
	return b
}

// BenchmarkE1Decomposition measures Partition on a 128×128 grid with ρ=32
// and reports the maximum strong radius (Theorem 4.1(2): must stay ≤ ρ).
func BenchmarkE1Decomposition(b *testing.B) {
	g := gen.Grid2D(128, 128)
	rng := rand.New(rand.NewSource(1))
	maxR := 0
	for i := 0; i < b.N; i++ {
		res := decomp.SplitGraph(g, 32, decomp.PracticalParams(), rng, nil)
		radii := decomp.StrongRadius(g, res)
		for _, r := range radii {
			if r > maxR {
				maxR = r
			}
		}
	}
	b.ReportMetric(float64(maxR), "maxRadius")
}

// BenchmarkE2CutFraction reports ρ·cutFraction for ρ = 32 on a torus
// (Theorem 4.1(3): cut fraction ∝ 1/ρ makes this roughly constant in ρ).
func BenchmarkE2CutFraction(b *testing.B) {
	g := gen.Torus2D(96, 96)
	rng := rand.New(rand.NewSource(2))
	rho := 32
	frac := 0.0
	for i := 0; i < b.N; i++ {
		res := decomp.SplitGraph(g, rho, decomp.PracticalParams(), rng, nil)
		frac = float64(decomp.CountCut(g, res.Comp, nil, 1).Total) / float64(g.M())
	}
	b.ReportMetric(frac*float64(rho), "rho*cutFrac")
}

// BenchmarkE3Overlap reports the maximum per-vertex ball coverage
// (Lemma 4.4 bounds it by O(log²n)).
func BenchmarkE3Overlap(b *testing.B) {
	g := gen.Grid2D(64, 64)
	p := decomp.PracticalParams()
	p.CountCoverage = true
	rng := rand.New(rand.NewSource(3))
	maxC := 0
	for i := 0; i < b.N; i++ {
		res := decomp.SplitGraph(g, 32, p, rng, nil)
		for _, c := range res.Coverage {
			if int(c) > maxC {
				maxC = int(c)
			}
		}
	}
	b.ReportMetric(float64(maxC), "maxCoverage")
}

// BenchmarkE4AKPWStretch builds the AKPW tree of a weighted grid and
// reports the average stretch (Theorem 5.1's headline quantity).
func BenchmarkE4AKPWStretch(b *testing.B) {
	g := gen.WithExponentialWeights(gen.Grid2D(64, 64), 32, 4, 4)
	rng := rand.New(rand.NewSource(4))
	avg := 0.0
	for i := 0; i < b.N; i++ {
		tree, _ := lowstretch.AKPW(g, lowstretch.PracticalParams(), rng, nil)
		_, st := lowstretch.TreeStretch(g, tree)
		avg = st.Average
	}
	b.ReportMetric(avg, "avgStretch")
}

// BenchmarkE5Subgraph builds the Theorem 5.9 ultra-sparse subgraph and
// reports extra edges beyond the spanning tree.
func BenchmarkE5Subgraph(b *testing.B) {
	g := gen.WithExponentialWeights(gen.Torus2D(64, 64), 16, 6, 5)
	extra := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(5))
		p := lowstretch.ParamsForBeta(g.N, 4, 2, false)
		sub, _ := lowstretch.LSSubgraph(g, p, rng, nil)
		extra = len(sub.EdgeIDs()) - (g.N - 1)
	}
	b.ReportMetric(float64(extra), "extraEdges")
}

// BenchmarkE6WellSpaced runs the Lemma 5.7 transform and reports the
// removed-edge fraction (bounded by θ = 0.25).
func BenchmarkE6WellSpaced(b *testing.B) {
	g := gen.WithExponentialWeights(gen.GNP(20000, 3e-4, 6), 4, 48, 6)
	removed := 0
	for i := 0; i < b.N; i++ {
		ws := lowstretch.WellSpace(g, 4, 2, 0.25)
		removed = len(ws.Removed)
	}
	b.ReportMetric(float64(removed)/float64(g.M()), "removedFrac")
}

// BenchmarkE7Elimination eliminates a tree-plus-64-edges graph and reports
// rounds (Lemma 6.5: O(log n)).
func BenchmarkE7Elimination(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 14
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: rng.Intn(i), V: i, W: 1})
	}
	for i := 0; i < 64; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, W: 1})
		}
	}
	g := NewGraph(n, edges)
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el := solver.GreedyElimination(g, rng, nil)
		rounds = el.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE8Sparsify runs IncrementalSparsify at κ=100 and reports the
// shrink factor m/|E(H)| (Lemma 6.1's size bound).
func BenchmarkE8Sparsify(b *testing.B) {
	g := gen.Torus2D(96, 96)
	shrink := 0.0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(8))
		res := solver.IncrementalSparsify(g, solver.DefaultSparsifyParams(), rng, nil)
		shrink = float64(g.M()) / float64(res.H.M())
	}
	b.ReportMetric(shrink, "shrink")
}

// BenchmarkE9Solver solves a 128×128 grid Laplacian to 1e-8 and reports
// PCG iterations (Theorem 1.1: iterations scale with log(1/ε), work near-
// linearly in m).
func BenchmarkE9Solver(b *testing.B) {
	g := gen.Grid2D(128, 128)
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N, 9)
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := s.Solve(rhs, 1e-8)
		iters = st.Iterations
	}
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkE9SolverIllConditioned is the baseline-contrast case: the chain
// solver on an exponential-weight grid where CG needs >10⁴ iterations.
func BenchmarkE9SolverIllConditioned(b *testing.B) {
	g := gen.WithExponentialWeights(gen.Grid2D(64, 64), 8, 8, 9)
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N, 10)
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := s.Solve(rhs, 1e-8)
		iters = st.Iterations
	}
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkE9BaselineCG is the same ill-conditioned system under plain CG,
// for the who-wins comparison.
func BenchmarkE9BaselineCG(b *testing.B) {
	g := gen.WithExponentialWeights(gen.Grid2D(64, 64), 8, 8, 9)
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	rhs := benchRHS(g.N, 10)
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := solver.CG(lap, rhs, comp, k, 1e-8, 60000, nil)
		iters = st.Iterations
	}
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkE9ChainBuild isolates preconditioner-chain construction cost.
func BenchmarkE9ChainBuild(b *testing.B) {
	g := gen.Grid2D(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.BuildChain(g, solver.DefaultChainParams(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Speedup runs the same solve under the current GOMAXPROCS;
// compare runs with -cpu 1,2,4,8 for the parallel speedup row.
func BenchmarkE9Speedup(b *testing.B) {
	g := gen.Grid2D(128, 128)
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Solve(rhs, 1e-6)
	}
}

// scalingWorkerSet is the worker grid for the Workers-knob scaling
// benchmarks: 1 (sequential reference), 2, 4 and the machine's GOMAXPROCS,
// deduplicated and sorted ascending.
func scalingWorkerSet() []int {
	set := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, w := range set {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// scalingGraphs returns the three topologies of the scaling suite: a mesh
// (bounded degree, long diameter), a random-regular expander (low diameter,
// uniform degree) and a preferential-attachment graph (heavy-tailed hubs,
// where chunked load-balance is stressed). Under -short (the CI benchmark
// smoke) the instances shrink so one pass stays in CI budget.
func scalingGraphs() []struct {
	name string
	g    *graph.Graph
} {
	if testing.Short() {
		return []struct {
			name string
			g    *graph.Graph
		}{
			{"grid-96x96", gen.Grid2D(96, 96)},
			{"regular-4000x8", gen.RandomRegular(4000, 8, 21)},
			{"pa-4000x4", gen.PreferentialAttachment(4000, 4, 22)},
		}
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-256x256", gen.Grid2D(256, 256)},
		{"regular-20000x8", gen.RandomRegular(20000, 8, 21)},
		{"pa-20000x4", gen.PreferentialAttachment(20000, 4, 22)},
	}
}

// BenchmarkScalingSolve measures a full Solve at 1/2/4/GOMAXPROCS workers
// on each scaling topology. The chain is built (with the same worker count)
// outside the timed region; compare workers-1 vs workers-4 for the
// parallel-speedup headline. Results are bitwise identical across the
// worker axis, so every variant does the same arithmetic.
func BenchmarkScalingSolve(b *testing.B) {
	for _, tc := range scalingGraphs() {
		rhs := benchRHS(tc.g.N, 31)
		for _, w := range scalingWorkerSet() {
			b.Run(fmt.Sprintf("%s/workers-%d", tc.name, w), func(b *testing.B) {
				s, err := solver.NewWithOptions(tc.g, solver.DefaultChainParams(),
					solver.Options{Workers: w}, nil)
				if err != nil {
					b.Fatal(err)
				}
				iters := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st := s.Solve(rhs, 1e-6)
					iters = st.Iterations
				}
				b.ReportMetric(float64(iters), "iters")
			})
		}
	}
}

// BenchmarkScalingChainBuild isolates preconditioner-chain construction
// (CSR builds, elimination sweeps, calibration) across the worker axis.
func BenchmarkScalingChainBuild(b *testing.B) {
	g := gen.Grid2D(256, 256)
	if testing.Short() {
		g = gen.Grid2D(96, 96)
	}
	for _, w := range scalingWorkerSet() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.BuildChainOpts(g, solver.DefaultChainParams(),
					solver.Options{Workers: w}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingCSRBuild measures the parallel triplet→CSR construction
// (stable bucket-by-row, then row-local sort + merge, scan, fill) across the
// worker axis.
func BenchmarkScalingCSRBuild(b *testing.B) {
	g := gen.Grid2D(256, 256)
	m := g.M()
	rows := make([]int, 0, 4*m)
	cols := make([]int, 0, 4*m)
	vals := make([]float64, 0, 4*m)
	for _, e := range g.Edges {
		rows = append(rows, e.U, e.V, e.U, e.V)
		cols = append(cols, e.V, e.U, e.U, e.V)
		vals = append(vals, -e.W, -e.W, e.W, e.W)
	}
	for _, w := range scalingWorkerSet() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := matrix.NewSparseFromTripletsW(w, g.N, rows, cols, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingKernels measures the per-iteration vector kernels (the
// innermost hot path of Chebyshev/PCG) across the worker axis.
func BenchmarkScalingKernels(b *testing.B) {
	n := 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%1024) * 0.001
		y[i] = float64(i%512) * 0.002
	}
	for _, w := range scalingWorkerSet() {
		b.Run(fmt.Sprintf("dot/workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = matrix.DotW(w, x, y)
			}
		})
		b.Run(fmt.Sprintf("axpy/workers-%d", w), func(b *testing.B) {
			dst := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.AxpyIntoW(w, dst, 1.0001, x, y)
			}
		})
	}
}

// BenchmarkE10Sparsifier builds a Spielman–Srivastava sparsifier with
// q = 8n samples and reports the probe distortion.
func BenchmarkE10Sparsifier(b *testing.B) {
	g := gen.GNP(600, 0.02, 12)
	dist := 0.0
	for i := 0; i < b.N; i++ {
		h, err := apps.SpectralSparsifier(g, 8*g.N, 0, 12)
		if err != nil {
			b.Fatal(err)
		}
		dist = apps.QuadFormDistortion(g, h, 20, 13)
	}
	b.ReportMetric(dist, "distortion")
}

// BenchmarkE10MaxFlow runs the electrical-flow approximate max-flow and
// reports the achieved fraction of the exact (Dinic) optimum.
func BenchmarkE10MaxFlow(b *testing.B) {
	g := gen.WithUniformWeights(gen.Grid2D(10, 10), 1, 4, 13)
	s, t := 0, g.N-1
	exact := apps.MaxFlowExact(g, s, t)
	ratio := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := apps.ApproxMaxFlow(g, s, t, 0.1, 20)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Value / exact
	}
	b.ReportMetric(ratio, "vsExact")
}

// BenchmarkAblationTreeVsSubgraph contrasts preconditioning with a
// low-stretch *subgraph* (the paper's contribution) against the same chain
// using only the spanning-tree part of Ĝ — the design choice Section 6
// motivates (Lemma 6.2's "subgraph suffices" observation).
func BenchmarkAblationTreeVsSubgraph(b *testing.B) {
	g := gen.WithExponentialWeights(gen.Grid2D(48, 48), 8, 6, 14)
	rhs := benchRHS(g.N, 15)
	run := func(b *testing.B, beta float64, lambda int) {
		p := solver.DefaultChainParams()
		p.Sparsify.Beta = beta
		p.Sparsify.Lambda = lambda
		s, err := solver.New(g, p, nil)
		if err != nil {
			b.Fatal(err)
		}
		iters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st := s.Solve(rhs, 1e-8)
			iters = st.Iterations
		}
		b.ReportMetric(float64(iters), "iters")
	}
	b.Run("subgraph-beta4", func(b *testing.B) { run(b, 4, 2) })
	b.Run("tree-like-beta64", func(b *testing.B) { run(b, 64, 4) })
}

// BenchmarkWDAccounting verifies the analytic work/depth layer is cheap:
// the same decomposition with and without a recorder.
func BenchmarkWDAccounting(b *testing.B) {
	g := gen.Grid2D(96, 96)
	rng := rand.New(rand.NewSource(16))
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decomp.SplitGraph(g, 32, decomp.PracticalParams(), rng, nil)
		}
	})
	b.Run("on", func(b *testing.B) {
		var rec wd.Recorder
		for i := 0; i < b.N; i++ {
			decomp.SplitGraph(g, 32, decomp.PracticalParams(), rng, &rec)
		}
	})
}
