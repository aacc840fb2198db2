package solver

import (
	"fmt"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/obs"
)

// The allocation wall for the apply path: a steady-state preconditioner
// application at Workers:1 must perform ZERO heap allocations — every
// scratch vector lives in the per-solve workspace, every hot kernel takes
// its sequential fast path before building a parallel closure. (At
// workers > 1 goroutine fan-out inherently allocates; the equivalence
// suites prove the arithmetic is identical, so the sequential path is the
// one to lock.) The variants below repeat the walls on disconnected graphs,
// whose per-component projection allocates nothing either.

func TestPrecondApplyZeroAllocs(t *testing.T) {
	g := gen.Grid2D(48, 48)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireApplyZeroAllocs(t, s.Chain, g.N, 1, "preconditioner application")
}

// requireApplyZeroAllocs holds a k-wide pass through the apply recursion
// (applyHTopBlock over n-vertex right-hand sides) to zero steady-state
// allocations.
func requireApplyZeroAllocs(t *testing.T, c *Chain, n, k int, what string) {
	t.Helper()
	var rs matrix.Block
	rs.Reshape(n, k)
	for j := 0; j < k; j++ {
		rs.SetCol(j, randRHS(n, int64(7+j)))
	}
	ws := newWorkspace(c, k)        // held directly: immune to pool/GC interplay
	c.applyHTopBlock(1, &rs, k, ws) // warm up (lazy growth done)
	allocs := testing.AllocsPerRun(20, func() {
		c.applyHTopBlock(1, &rs, k, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state %s allocated %.1f objects/op, want 0", what, allocs)
	}
}

// The instrumented solve path must cost nothing on the allocation wall:
// SolveTraced with a caller-held trace may not allocate more than the
// untraced SolveOpts baseline (the trace lives in the pooled workspace and
// the copy-out is a plain struct assignment), and it must actually populate
// the trace — nonzero outer/preconditioner time, level count, and a stage
// partition that accounts for the preconditioner total.
func TestSolveTracedNoExtraAllocs(t *testing.T) {
	g := gen.Grid2D(32, 32)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(g.N, 11)
	const eps = 1e-4
	opt := Options{Workers: 1}
	s.SolveOpts(b, eps, opt) // warm the pool (lazy outer scratch growth done)
	base := testing.AllocsPerRun(10, func() {
		s.SolveOpts(b, eps, opt)
	})
	var tr obs.SolveTrace
	traced := testing.AllocsPerRun(10, func() {
		s.SolveTraced(b, eps, opt, &tr)
	})
	// Under -race sync.Pool randomly drops items, so both measurements carry
	// pool-miss noise and the comparison is only meaningful on normal builds.
	if traced > base && !raceDetectorEnabled {
		t.Fatalf("traced solve allocated %.1f objects/op, untraced baseline %.1f", traced, base)
	}
	if tr.OuterNS <= 0 || tr.PrecondNS <= 0 || tr.TotalNS < 0 {
		t.Fatalf("trace not populated: %+v", tr)
	}
	if tr.Levels != len(s.Chain.Levels) {
		t.Fatalf("trace Levels = %d, want %d", tr.Levels, len(s.Chain.Levels))
	}
	if tr.OuterNS < tr.PrecondNS {
		t.Fatalf("OuterNS %d < PrecondNS %d", tr.OuterNS, tr.PrecondNS)
	}
	// Exclusive stages partition the preconditioner time; clock granularity
	// and loop overhead leave a small unattributed remainder, never an excess.
	sum := tr.StageNS(obs.StageCheb) + tr.StageNS(obs.StageForward) +
		tr.StageNS(obs.StageBack) + tr.StageNS(obs.StageBottom)
	if sum > tr.PrecondNS {
		t.Fatalf("exclusive stages sum to %d > PrecondNS %d", sum, tr.PrecondNS)
	}
	if sum <= 0 {
		t.Fatalf("exclusive stages recorded no time: %+v", tr)
	}
}

// The k-wide apply pass is held to the same wall as the width-1 pass: a
// steady-state k-wide preconditioner application at Workers:1 must perform
// ZERO heap allocations — the block workspace reshapes in place, every
// block kernel takes its sequential fast path, and lane compaction is pure
// data movement. Width 1 is covered above; this is the k = 4 pass, the
// widest a lane group hands the chain.
func TestPrecondApplyBlockZeroAllocs(t *testing.T) {
	g := gen.Grid2D(48, 48)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireApplyZeroAllocs(t, s.Chain, g.N, 4, "block preconditioner application")
}

// The full traced block solve must also be allocation-free at steady state
// when the caller retains the RHS/solution blocks and the stats buffer:
// SolveBlockTraced reshapes them in place, the workspace comes from the
// warm pool, and the trace copy-out is a struct assignment. This is the
// wall the streaming driver (internal/service/stream.go) relies on — a long
// stream's windows after the first must not allocate inside the solver.
// k = 3 runs one padded 4-wide group and k = 8 two 4-lane groups one after
// another, each returning its workspace before the next takes it.
func TestSolveBlockTracedZeroAllocs(t *testing.T) {
	g := gen.Grid2D(32, 32)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{8, 4, 3, 2, 1} {
		tr := requireSolveBlockZeroAllocs(t, s, k, fmt.Sprintf("k=%d block solve", k))
		if tr.OuterNS <= 0 || tr.PrecondNS <= 0 {
			t.Fatalf("k=%d: trace not populated: %+v", k, tr)
		}
	}
}

// requireSolveBlockZeroAllocs holds a k-lane SolveBlockTraced at Workers:1
// with caller-retained blocks, stats and trace to zero steady-state
// allocations and checks every lane converged; it returns the last solve's
// trace.
func requireSolveBlockZeroAllocs(t *testing.T, s *Solver, k int, what string) obs.SolveTrace {
	t.Helper()
	return requireSolveBlockAllocs(t, s, k, 1, 0, what)
}

// requireSolveBlockAllocs is requireSolveBlockZeroAllocs at the given
// worker count, allowing at most maxAllocs steady-state allocations per
// call.
func requireSolveBlockAllocs(t *testing.T, s *Solver, k, workers int, maxAllocs float64, what string) obs.SolveTrace {
	t.Helper()
	var rhs, out matrix.Block
	rhs.Reshape(s.G.N, k)
	for j := 0; j < k; j++ {
		rhs.SetCol(j, randRHS(s.G.N, int64(11+j)))
	}
	const eps = 1e-4
	opt := Options{Workers: workers}
	var tr obs.SolveTrace
	var sts []SolveStats
	sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts) // warm pool + buffers
	allocs := testing.AllocsPerRun(10, func() {
		sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts)
	})
	// Under -race sync.Pool intentionally drops items, so the pooled
	// workspace misses and reallocates; the wall only holds on normal builds.
	if allocs > maxAllocs && !raceDetectorEnabled {
		t.Fatalf("steady-state %s allocated %.1f objects/op, want <= %.0f", what, allocs, maxAllocs)
	}
	if len(sts) != k {
		t.Fatalf("%s: got %d stats rows, want %d", what, len(sts), k)
	}
	for j, st := range sts {
		if !st.Converged {
			t.Fatalf("%s: lane %d did not converge: %+v", what, j, st)
		}
	}
	return tr
}

// A block solve at Workers ≥ 2 runs its lanes as concurrent groups, each on
// the zero-allocation sequential path: what it allocates is the fan-out
// itself (the group workspace list, the task closure, the worker team),
// a fixed handful per call whatever the graph size — against one closure
// and goroutine team per kernel call (≈97 000 per k = 8 call on
// pa:10000:4) when the kernels split each level's vertices instead.
func TestSolveBlockTracedGroupAllocs(t *testing.T) {
	g := gen.PreferentialAttachment(1500, 3, 17)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Chain.Depth() < 2 {
		t.Fatalf("chain has %d levels, want >= 2", s.Chain.Depth())
	}
	requireSolveBlockAllocs(t, s, 8, 2, 16, "k=8 Workers:2 block solve")
}

// BenchmarkPrecondApply reports ns/op and (via ReportAllocs) allocs/op for
// the public pooled entry point (k=1) and for one block application through
// applyHTopBlock at each fixed-width body's lane count (k=2, k=4), all at
// Workers 1 — the CI-visible record of the allocation-free apply path and
// of what a lane group saves per right-hand side (ns/rhs).
func BenchmarkPrecondApply(b *testing.B) {
	g := gen.Grid2D(64, 64)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("k=1", func(b *testing.B) {
		r := randRHS(g.N, 7)
		dst := make([]float64, g.N)
		s.Chain.PrecondApplyIntoW(1, r, dst) // warm the pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Chain.PrecondApplyIntoW(1, r, dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/rhs")
	})
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var rs matrix.Block
			rs.Reshape(g.N, k)
			for j := 0; j < k; j++ {
				rs.SetCol(j, randRHS(g.N, int64(7+j)))
			}
			ws := newWorkspace(s.Chain, k)
			s.Chain.applyHTopBlock(1, &rs, k, ws) // warm up (lazy growth done)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Chain.applyHTopBlock(1, &rs, k, ws)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/rhs")
		})
	}
}

// BenchmarkSolveSingle times whole k = 1 solves at Workers 1 on the
// grid_expw benchmark workload's graph (grid 96², conductances
// gen.WithExponentialWeights(g, 8, 8, 1), default chain, eps 1e-6): the
// outer PCG driver's own passes included, which BenchmarkPrecondApply
// leaves out. ns/op is one solve; the steady state allocates nothing.
func BenchmarkSolveSingle(b *testing.B) {
	g := gen.WithExponentialWeights(gen.Grid2D(96, 96), 8, 8, 1)
	s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rhs, out := matrix.VecBlock(randRHS(g.N, 7)), matrix.NewBlock(g.N, 1)
	opt := Options{Workers: 1}
	sts := s.SolveBlockTraced(&rhs, out, 1e-6, opt, nil, nil) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sts = s.SolveBlockTraced(&rhs, out, 1e-6, opt, nil, sts)
	}
	b.ReportMetric(float64(sts[0].Iterations), "iterations")
}

// The allocation walls above, re-run on chain shapes whose apply path takes
// other branches than the deep unit-weight grid: the count-based default
// chain (one level over a sparse LDLᵀ bottom factor), exponentially spread
// conductances (the grid_expw workload's weights, which change the
// sparsifier's sampling and the calibrated schedule), and a preferential-
// attachment graph (irregular degrees, so uneven CSR rows in every sweep),
// and a two-component union (grid side² beside grid (5·side/8)²) with the
// default and a deep chain, where every projection is per component.
// Each must hold the same steady-state zero-allocation guarantee.
type allocVariant struct {
	name   string
	g      *graph.Graph
	params ChainParams
}

func allocVariants(side int) []allocVariant {
	grid := gen.Grid2D(side, side)
	expw := gen.WithExponentialWeights(gen.Grid2D(side, side), 8, 4, 5)
	pa := gen.PreferentialAttachment(side*side, 3, 17)
	small := gen.Grid2D(side*5/8, side*5/8)
	edges := append([]graph.Edge(nil), grid.Edges...)
	for _, e := range small.Edges {
		edges = append(edges, graph.Edge{U: e.U + grid.N, V: e.V + grid.N, W: e.W})
	}
	two := graph.FromEdges(grid.N+small.N, edges)
	return []allocVariant{
		{"default-params", grid, DefaultChainParams()},
		{"exp-weights", expw, deepChainParams(expw)},
		{"pa", pa, deepChainParams(pa)},
		{"two-components", two, DefaultChainParams()},
		{"two-components-deep", two, deepChainParams(two)},
	}
}

func TestPrecondApplyZeroAllocsVariants(t *testing.T) {
	for _, v := range allocVariants(48) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			s, err := NewWithOptions(v.g, v.params, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireApplyZeroAllocs(t, s.Chain, v.g.N, 1, v.name+" application")
		})
	}
}

func TestPrecondApplyBlockZeroAllocsVariants(t *testing.T) {
	for _, v := range allocVariants(48) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			s, err := NewWithOptions(v.g, v.params, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireApplyZeroAllocs(t, s.Chain, v.g.N, 4, v.name+" block application")
		})
	}
}

func TestSolveBlockTracedZeroAllocsVariants(t *testing.T) {
	for _, v := range allocVariants(32) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			s, err := NewWithOptions(v.g, v.params, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{4, 2, 1} {
				requireSolveBlockZeroAllocs(t, s, k, fmt.Sprintf("%s k=%d block solve", v.name, k))
			}
		})
	}
}
