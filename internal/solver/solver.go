package solver

import (
	"fmt"
	"math"
	"time"

	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/obs"
	"parlap/internal/par"
	"parlap/internal/wd"
)

// Solver is the public entry point: a Laplacian solver backed by the
// paper's preconditioner chain (Theorem 1.1). Construct once per graph with
// New (or NewWithOptions to pin the worker count), then Solve any number of
// right-hand sides.
type Solver struct {
	G *graph.Graph // the input graph as given
	// Lap, Comp, NumComp and CompIdx (the outer PCG's operator and its
	// component index) are the chain's top-level objects, not a copy: see
	// Chain.Top. Weight-0 edges of G join no components there.
	Lap     *matrix.Sparse
	Chain   *Chain
	Comp    []int
	NumComp int
	CompIdx *matrix.CompIndex
	Opt     Options
	MaxIter int
}

// New builds a Solver for the Laplacian of g with the default execution
// policy. The recorder is optional and accumulates the analytical
// work/depth of construction only; each solve reports its own in
// SolveStats.
func New(g *graph.Graph, p ChainParams, rec *wd.Recorder) (*Solver, error) {
	return NewWithOptions(g, p, Options{}, rec)
}

// NewWithOptions builds a Solver whose construction and iteration kernels
// run with opt.Workers goroutines (0 = GOMAXPROCS, 1 = the sequential
// reference path). Because every parallel reduction uses a fixed combining
// tree, solvers built from the same inputs produce bitwise-identical
// results for every Workers setting.
func NewWithOptions(g *graph.Graph, p ChainParams, opt Options, rec *wd.Recorder) (*Solver, error) {
	if g.N == 0 {
		return nil, fmt.Errorf("solver: empty graph")
	}
	ch, err := BuildChainOpts(g, p, opt, rec)
	if err != nil {
		return nil, err
	}
	return newSolver(g, ch, opt, 10*int(math.Sqrt(float64(g.N))+100)), nil
}

// newSolver wraps a built or restored chain over the input graph g. The
// Solver's operator and component index are the chain's top-level objects.
func newSolver(g *graph.Graph, ch *Chain, opt Options, maxIter int) *Solver {
	lap, ci := ch.Top()
	return &Solver{
		G: g, Lap: lap, Chain: ch,
		Comp: ci.Comp, NumComp: ci.NumComp, CompIdx: ci,
		Opt: opt, MaxIter: maxIter,
	}
}

// MemoryBytes estimates the solver's retained footprint — the input graph
// and the whole preconditioner chain, which holds the operator and
// component index the outer PCG reads and the one workspace pool every
// solve draws from — the per-entry cost a serving layer's byte-budgeted
// cache accounts for.
func (s *Solver) MemoryBytes() int64 {
	return s.G.MemoryBytes() + s.Chain.MemoryBytes()
}

// WorkspaceBytes reports the high-water footprint of the chain's workspace
// pool (chain scratch plus outer PCG scratch, per concurrent solve) — the
// scratch a serving layer retains between GCs on top of the chain itself.
func (s *Solver) WorkspaceBytes() int64 { return s.Chain.ws.PeakBytes() }

// Solve returns x̃ with ‖x̃−L⁺b‖_L ≤ ~ε·‖L⁺b‖_L for the graph Laplacian L,
// using flexible PCG with the chain preconditioner (the adaptive outer
// wrapper around the paper's rPCh recursion; the inner recursion is exactly
// Lemma 6.7's fixed-degree Chebyshev). The right-hand side is projected
// onto range(L) per connected component first.
//
// A Solver is read-only after construction: Solve (and SolveOpts /
// SolveBatch) keep all per-solve state in call-local buffers, so any number
// of goroutines may solve concurrently on one shared Solver, and — because
// every parallel reduction uses a fixed combining tree — each goroutine gets
// the bitwise-identical answer it would have gotten solving alone.
func (s *Solver) Solve(b []float64, eps float64) ([]float64, SolveStats) {
	return s.SolveOpts(b, eps, s.Opt)
}

// SolveOpts is Solve with a per-call execution policy: opt.Workers selects
// the worker count for this one solve without rebuilding anything, which is
// how a serving layer splits a global worker budget across concurrent
// requests. Results are bitwise identical for every Workers value.
func (s *Solver) SolveOpts(b []float64, eps float64, opt Options) ([]float64, SolveStats) {
	return s.SolveTraced(b, eps, opt, nil)
}

// SolveTraced is SolveOpts with stage timing: when tr is non-nil, the
// solve's per-stage trace (workspace acquire, outer PCG, preconditioner
// applications, per-level Chebyshev/forward/back, bottom solves) is copied
// into it before the pooled workspace is released. Timing reads the clock
// around the kernels but never touches data values, so results remain
// bitwise identical to SolveOpts, and the trace copy is a plain struct
// assignment — the traced path allocates nothing beyond the untraced one.
// It is SolveBlockTraced at width 1 on block views of b (never copied) and
// of the freshly allocated result.
func (s *Solver) SolveTraced(b []float64, eps float64, opt Options, tr *obs.SolveTrace) ([]float64, SolveStats) {
	x := make([]float64, len(b))
	rhs, out := matrix.VecBlock(b), matrix.VecBlock(x)
	var st [1]SolveStats
	s.SolveBlockTraced(&rhs, &out, eps, opt, tr, st[:])
	return x, st[0]
}

// SolveBatch solves the k right-hand sides bs against the same Laplacian in
// one batched PCG run: every iteration performs a single pass through the
// preconditioner chain (one elimination-log replay, one Chebyshev sweep per
// level, one CSR traversal per mat-vec, one direct bottom solve) serving all
// still-active columns, amortizing the chain's memory traffic across the
// batch. Column c of the result is bitwise identical to Solve(bs[c], eps):
// batching changes traversal sharing, never arithmetic. Columns converge
// (and drop out) independently.
func (s *Solver) SolveBatch(bs [][]float64, eps float64) ([][]float64, []SolveStats) {
	return s.SolveBatchOpts(bs, eps, s.Opt)
}

// SolveBatchOpts is SolveBatch with a per-call execution policy; see
// SolveOpts.
func (s *Solver) SolveBatchOpts(bs [][]float64, eps float64, opt Options) ([][]float64, []SolveStats) {
	return s.SolveBatchTraced(bs, eps, opt, nil)
}

// SolveBatchTraced is SolveBatchOpts with stage timing; the trace covers
// the whole batch (the chain passes are shared across columns, so per-column
// attribution does not exist). See SolveTraced. It is a staging wrapper over
// SolveBlockTraced: the slice columns are packed into a contiguous block,
// solved, and unpacked into freshly allocated output columns. A batch of
// one is SolveTraced, which solves on a view of the column unpacked.
func (s *Solver) SolveBatchTraced(bs [][]float64, eps float64, opt Options, tr *obs.SolveTrace) ([][]float64, []SolveStats) {
	switch len(bs) {
	case 0:
		return nil, nil
	case 1: // one vector solves on a view of b, with no packing into a block
		x, st := s.SolveTraced(bs[0], eps, opt, tr)
		return [][]float64{x}, []SolveStats{st}
	}
	k := len(bs)
	n := len(bs[0])
	var rhs, out matrix.Block
	rhs.Reshape(n, k)
	for c, b := range bs {
		rhs.SetCol(c, b)
	}
	sts := s.SolveBlockTraced(&rhs, &out, eps, opt, tr, nil)
	xs := make([][]float64, k)
	for c := range xs {
		xs[c] = make([]float64, n)
		out.ColInto(c, xs[c])
	}
	return xs, sts
}

// SolveBlockTraced is the allocation-free batched entry point: the k lanes
// of rhs are solved by block PCG (one contiguous pass through the
// preconditioner chain per iteration serving every still-active lane) into
// out, which is reshaped to rhs's shape and fully overwritten. Lane c is
// bitwise identical to Solve on rhs's column c for every Workers setting.
//
// The lanes are split into contiguous groups (laneGroups), p being
// opt.Workers resolved, and each group runs its own block PCG on its own
// pooled workspace. A group has at most maxGroupLanes lanes, and one of
// three runs as a 4-wide block with a zero pad lane (blockWidth), so the
// block kernels run widths 1, 2 and 4 only. At p = 1 the groups run one
// after another in the caller's goroutine; at p ≥ 2 (and k ≥ 2) up to
// min(p, g) of them run concurrently, each on the sequential kernels:
// parallelism comes from the lanes, which are independent, not from inside
// each kernel. A lone lane (k = 1) runs as one group whose kernels
// parallelize on the Workers knob.
// Each group returns its workspace to the pool as it finishes. The trace
// sums the groups' slots, so it reads worker time rather than wall time.
//
// sts is reused for the returned stats when its capacity allows, so a
// steady-state caller (the streaming driver) that holds rhs, out and sts
// across windows performs zero heap allocations per solve at Workers:1 for
// every k ≥ 1, and a bounded handful for the group fan-out otherwise.
// Every chain solve runs here: SolveTraced is this at k = 1.
func (s *Solver) SolveBlockTraced(rhs, out *matrix.Block, eps float64, opt Options, tr *obs.SolveTrace, sts []SolveStats) []SolveStats {
	k := rhs.K()
	if cap(sts) >= k {
		sts = sts[:k]
		for i := range sts {
			sts[i] = SolveStats{}
		}
	} else {
		sts = make([]SolveStats, k)
	}
	if k == 0 {
		return sts
	}
	if eps <= 0 {
		eps = 1e-8
	}
	out.Reshape(rhs.N(), k)
	out.Zero()
	p := par.Resolve(opt.Workers)
	groups := laneGroups(p, k)
	var sum obs.SolveTrace
	if p == 1 || groups == 1 {
		for g := 0; g < groups; g++ {
			lo, hi := laneGroup(p, k, groups, g)
			ws := s.solveLanes(opt.Workers, rhs, lo, hi, eps, out, sts)
			sum.Add(&ws.trace)
			s.Chain.ws.put(ws)
		}
	} else {
		traces := make([]obs.SolveTrace, groups)
		par.TasksW(min(p, groups), groups, func(g int) {
			lo, hi := laneGroup(p, k, groups, g)
			ws := s.solveLanes(1, rhs, lo, hi, eps, out, sts)
			traces[g] = ws.trace
			s.Chain.ws.put(ws)
		})
		for i := range traces {
			sum.Add(&traces[i])
		}
	}
	if tr != nil {
		*tr = sum
	}
	return sts
}

// maxGroupLanes caps the lanes of one group of a block solve (see
// SolveBlockTraced and blockWidth).
const maxGroupLanes = 4

// laneGroups is how many lane groups a k-lane block solve at p resolved
// workers runs: ⌈k/4⌉ at p = 1, where the groups run one after another and
// so are filled to four lanes first (laneGroup); max(min(p, k), ⌈k/4⌉) at
// p ≥ 2, so that every worker gets a group.
func laneGroups(p, k int) int {
	if p == 1 {
		return (k + maxGroupLanes - 1) / maxGroupLanes
	}
	return max(min(p, k), (k+maxGroupLanes-1)/maxGroupLanes)
}

// laneGroup returns the lanes lo … hi−1 of group g of the groups
// laneGroups(p, k) chose. At p = 1 every group but the last has
// maxGroupLanes lanes, so k = 5 runs as 4 + 1 and k = 6 as 4 + 2 with no
// pad lane; at p ≥ 2 the sizes differ by at most one, for balance.
func laneGroup(p, k, groups, g int) (lo, hi int) {
	if p == 1 {
		return g * maxGroupLanes, min((g+1)*maxGroupLanes, k)
	}
	return g * k / groups, (g + 1) * k / groups
}

// solveLanes solves lanes lo … hi−1 of rhs into their columns of out (zeroed
// by the caller) and stats on a workspace drawn from the chain's pool, and
// returns that workspace, its trace filled in, for the caller to release.
func (s *Solver) solveLanes(workers int, rhs *matrix.Block, lo, hi int, eps float64, out *matrix.Block, sts []SolveStats) *workspace {
	t0 := time.Now()
	ws := s.Chain.ws.get(s.Chain, blockWidth(hi-lo))
	ws.trace.WorkspaceNS = time.Since(t0).Nanoseconds()
	ws.trace.Levels = len(s.Chain.Levels)
	tOuter := time.Now()
	pcgFlexibleBlock(workers, s.Lap, s.Chain, rhs, lo, hi, s.CompIdx, eps, s.MaxIter, ws, out, sts)
	ws.trace.OuterNS = time.Since(tOuter).Nanoseconds()
	return ws
}

// Residual returns ‖b − L x‖₂ / ‖b‖₂ with b projected per component.
func (s *Solver) Residual(x, b []float64) float64 {
	w := s.Opt.Workers
	r := matrix.CopyVec(b)
	matrix.ProjectOutConstantMaskedIdxW(w, r, s.CompIdx)
	bn := matrix.Norm2W(w, r)
	ax := s.Lap.Apply(x)
	matrix.SubIntoW(w, r, r, ax)
	// L x is automatically in range(L); projection of r keeps comparisons fair.
	matrix.ProjectOutConstantMaskedIdxW(w, r, s.CompIdx)
	if bn == 0 {
		return 0
	}
	return matrix.Norm2W(w, r) / bn
}

// SDDSolver solves general symmetric diagonally dominant systems by the
// Gremban double-cover reduction to a Laplacian (§2 of the paper).
type SDDSolver struct {
	A      *matrix.Sparse
	gr     *matrix.GrembanReduction
	lap    *Solver // solver over the double cover (or directly when A is a Laplacian)
	direct bool    // A was already a Laplacian; no reduction employed
}

// NewSDD builds a solver for the SDD matrix a with the default execution
// policy.
func NewSDD(a *matrix.Sparse, p ChainParams, rec *wd.Recorder) (*SDDSolver, error) {
	return NewSDDWithOptions(a, p, Options{}, rec)
}

// NewSDDWithOptions is NewSDD with an explicit execution policy.
func NewSDDWithOptions(a *matrix.Sparse, p ChainParams, opt Options, rec *wd.Recorder) (*SDDSolver, error) {
	if matrix.IsLaplacian(a, 1e-9) {
		ls, err := NewWithOptions(matrix.GraphOfW(opt.Workers, a), p, opt, rec)
		if err != nil {
			return nil, err
		}
		return &SDDSolver{A: a, lap: ls, direct: true}, nil
	}
	gr, err := matrix.NewGrembanReductionW(opt.Workers, a, 0)
	if err != nil {
		return nil, err
	}
	ls, err := NewWithOptions(gr.G, p, opt, rec)
	if err != nil {
		return nil, err
	}
	return &SDDSolver{A: a, gr: gr, lap: ls}, nil
}

// Solve returns x̃ ≈ A⁺b.
func (s *SDDSolver) Solve(b []float64, eps float64) ([]float64, SolveStats) {
	if s.direct {
		return s.lap.Solve(b, eps)
	}
	y, st := s.lap.Solve(s.gr.Lift(b), eps)
	return s.gr.Project(y), st
}

// SolveBatch solves k right-hand sides in one batched run; see
// Solver.SolveBatch for the sharing and bitwise-equivalence guarantees.
func (s *SDDSolver) SolveBatch(bs [][]float64, eps float64) ([][]float64, []SolveStats) {
	if s.direct {
		return s.lap.SolveBatch(bs, eps)
	}
	lifted := make([][]float64, len(bs))
	for c, b := range bs {
		lifted[c] = s.gr.Lift(b)
	}
	ys, sts := s.lap.SolveBatch(lifted, eps)
	xs := make([][]float64, len(ys))
	for c, y := range ys {
		xs[c] = s.gr.Project(y)
	}
	return xs, sts
}
