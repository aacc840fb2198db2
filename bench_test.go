// Top-level benchmarks: the worker-scaling suite, which times a full solve,
// the chain build, the CSR build and the vector kernels at workers 1, 2, 4
// and GOMAXPROCS. The paper's quantitative claims are asserted by tests in
// the packages that own them (see README's paper map), not measured here.
// Run with
//
//	go test -run '^$' -bench BenchmarkScaling
package parlap

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/solver"
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
