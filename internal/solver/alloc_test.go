package solver

import (
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
// one to lock.) Connected testbed graph: the single-component projection is
// the allocation-free one; per-component mean buffers on disconnected
// graphs are small and documented.

func TestPrecondApplyZeroAllocs(t *testing.T) {
	g := gen.Grid2D(48, 48)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Chain
	r := randRHS(g.N, 7)
	ws := newWorkspace(c, 1) // held directly: immune to pool/GC interplay
	c.applyHTop(1, r, ws)    // warm up (lazy growth done)
	allocs := testing.AllocsPerRun(20, func() {
		c.applyHTop(1, r, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state preconditioner application allocated %.1f objects/op, want 0", allocs)
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

// The block apply path is held to the same wall as the single path: a
// steady-state k-wide preconditioner application at Workers:1 must perform
// ZERO heap allocations — the block workspace reshapes in place, every
// block kernel takes its sequential fast path, and lane compaction is pure
// data movement. k >= 2 is the interesting case (the k==1 path delegates to
// the single kernels, covered above).
func TestPrecondApplyBlockZeroAllocs(t *testing.T) {
	g := gen.Grid2D(48, 48)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Chain
	const k = 8
	var rs matrix.Block
	rs.Reshape(g.N, k)
	for j := 0; j < k; j++ {
		rs.SetCol(j, randRHS(g.N, int64(7+j)))
	}
	ws := newWorkspace(c, k) // held directly: immune to pool/GC interplay
	c.applyHTopBlock(1, &rs, ws)
	allocs := testing.AllocsPerRun(20, func() {
		c.applyHTopBlock(1, &rs, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state block preconditioner application allocated %.1f objects/op, want 0", allocs)
	}
}

// The full traced block solve must also be allocation-free at steady state
// when the caller retains the RHS/solution blocks and the stats buffer:
// SolveBlockTraced reshapes them in place, the workspace comes from the
// warm pool, and the trace copy-out is a struct assignment. This is the
// wall the streaming driver (internal/service/stream.go) relies on — a long
// stream's windows after the first must not allocate inside the solver.
func TestSolveBlockTracedZeroAllocs(t *testing.T) {
	g := gen.Grid2D(32, 32)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	var rhs, out matrix.Block
	rhs.Reshape(g.N, k)
	for j := 0; j < k; j++ {
		rhs.SetCol(j, randRHS(g.N, int64(11+j)))
	}
	const eps = 1e-4
	opt := Options{Workers: 1}
	var tr obs.SolveTrace
	var sts []SolveStats
	sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts) // warm pool + buffers
	allocs := testing.AllocsPerRun(10, func() {
		sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts)
	})
	// Under -race sync.Pool intentionally drops items, so the pooled
	// workspace misses and reallocates; the wall only holds on normal builds.
	if allocs != 0 && !raceDetectorEnabled {
		t.Fatalf("steady-state block solve allocated %.1f objects/op, want 0", allocs)
	}
	if len(sts) != k {
		t.Fatalf("got %d stats rows, want %d", len(sts), k)
	}
	for j, st := range sts {
		if !st.Converged {
			t.Fatalf("lane %d did not converge: %+v", j, st)
		}
	}
	if tr.OuterNS <= 0 || tr.PrecondNS <= 0 {
		t.Fatalf("trace not populated: %+v", tr)
	}
}

// BenchmarkPrecondApply reports ns/op and (via ReportAllocs) allocs/op for
// the public pooled entry point — the CI-visible record of the
// allocation-free apply path.
func BenchmarkPrecondApply(b *testing.B) {
	g := gen.Grid2D(64, 64)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := randRHS(g.N, 7)
	dst := make([]float64, g.N)
	s.Chain.PrecondApplyIntoW(1, r, dst) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Chain.PrecondApplyIntoW(1, r, dst)
	}
}

// The allocation walls above, re-run on chain shapes whose apply path takes
// other branches than the deep unit-weight grid: the count-based default
// chain (one level over a sparse LDLᵀ bottom factor), exponentially spread
// conductances (the grid_expw workload's weights, which change the
// sparsifier's sampling and the calibrated schedule), and a preferential-
// attachment graph (irregular degrees, so uneven CSR rows in every sweep).
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
	return []allocVariant{
		{"default-params", grid, DefaultChainParams()},
		{"exp-weights", expw, deepChainParams(expw)},
		{"pa", pa, deepChainParams(pa)},
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
			c := s.Chain
			r := randRHS(v.g.N, 7)
			ws := newWorkspace(c, 1)
			c.applyHTop(1, r, ws)
			allocs := testing.AllocsPerRun(20, func() {
				c.applyHTop(1, r, ws)
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s application allocated %.1f objects/op, want 0", v.name, allocs)
			}
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
			c := s.Chain
			const k = 8
			var rs matrix.Block
			rs.Reshape(v.g.N, k)
			for j := 0; j < k; j++ {
				rs.SetCol(j, randRHS(v.g.N, int64(7+j)))
			}
			ws := newWorkspace(c, k)
			c.applyHTopBlock(1, &rs, ws)
			allocs := testing.AllocsPerRun(20, func() {
				c.applyHTopBlock(1, &rs, ws)
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s block application allocated %.1f objects/op, want 0", v.name, allocs)
			}
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
			const k = 4
			var rhs, out matrix.Block
			rhs.Reshape(v.g.N, k)
			for j := 0; j < k; j++ {
				rhs.SetCol(j, randRHS(v.g.N, int64(11+j)))
			}
			const eps = 1e-4
			opt := Options{Workers: 1}
			var tr obs.SolveTrace
			var sts []SolveStats
			sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts)
			allocs := testing.AllocsPerRun(10, func() {
				sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts)
			})
			if allocs != 0 && !raceDetectorEnabled {
				t.Fatalf("steady-state %s block solve allocated %.1f objects/op, want 0", v.name, allocs)
			}
			for j, st := range sts {
				if !st.Converged {
					t.Fatalf("lane %d did not converge: %+v", j, st)
				}
			}
		})
	}
}
