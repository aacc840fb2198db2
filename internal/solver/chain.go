package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/obs"
	"parlap/internal/par"
	"parlap/internal/wd"
)

// ChainParams controls preconditioner-chain construction (Definition 6.3
// with the Section 6.3 truncation).
type ChainParams struct {
	Sparsify SparsifyParams
	// BottomSizeEdges > 0 truncates the chain once a level has at most this
	// many edges (§6.3's size rule; tests and experiments pin chain depth
	// with it). ≤0, the default, selects the count-based rule instead: the
	// chain stops at the first level i ≥ 1 whose sparse bottom factor
	// satisfies 2·nnz(L_i) ≤ MinChebIts·nnz(Lap_i) — one direct solve there
	// costs no more than the cheapest Chebyshev sweep that recursing through
	// the level could ever run. §6.3 stops at m^(1/3) because its levels
	// shrink by κ^Ω(1); at serving sizes they shrink 3–4× while every level
	// multiplies the visits below it by its Chebyshev count, so the balance
	// point is set from this exact operation count, never from a timer.
	BottomSizeEdges int
	// BottomFloor is the vertex count at or below which a graph is solved
	// directly without building a level (avoids silly chains on small
	// inputs). Default 64.
	BottomFloor int
	// MaxBottomVertices bounds the bottom factor's memory: the build fails
	// if nnz(L) of the graph the chain stops at exceeds
	// MaxBottomVertices²/2, the footprint of a dense triangle on that many
	// vertices.
	MaxBottomVertices int
	// MaxLevels caps chain length.
	MaxLevels int
	// ShrinkRetry: if a level fails to shrink by at least this factor, the
	// sparsifier is retried once with doubled κ, then the chain truncates.
	ShrinkRetry float64
	// KappaGrowth multiplies the sparsifier's κ at each successive level,
	// mirroring §6.3's increasing κᵢ = (2c₄)^(i−1)·κ₁ schedule: the top
	// level gets the most faithful preconditioner (it bounds the outer
	// iteration count) while deeper levels trade fidelity for shrinkage.
	// Default 2.
	KappaGrowth float64
	// ChebSlack multiplies κ when setting the STATIC Chebyshev lower bound
	// EigHi/(κ·ChebSlack), absorbing the sampling constants in H ⪯ O(κ)·G.
	// Since calibration measures the interval, this bound only acts as the
	// safety envelope: the measured EigLo is never allowed below it.
	// Default 1.5.
	ChebSlack float64
	// MaxChebIts caps the per-level Chebyshev iteration count ⌈√κ⌉,
	// bounding the recursion fan-out. Default 24.
	MaxChebIts int
	// MinChebIts floors the calibrated per-level iteration count (replaces
	// the previously hardcoded 4). Default 4.
	MinChebIts int
	// CalibIters is the Lanczos iteration count per level used to measure
	// both ends of spec(H⁻¹A) at calibration time (replaces the fixed
	// 12-step λmax-only power iteration). Default 16.
	CalibIters int
	// EigSafety pads the measured spectral bounds — EigHi = λmax·EigSafety,
	// EigLo = λmin/√EigSafety — because Ritz values approach the spectrum
	// from inside; the upper end gets the full margin (beyond it a fixed-
	// degree Chebyshev polynomial diverges), the lower end only a square
	// root (a high floor merely under-damps the lowest modes). Replaces
	// the hardcoded 1.3 power-iteration margin. Default 1.2.
	EigSafety float64
	// ChebBudget multiplies the measured per-level shrink m_{i-1}/m_i to
	// form the work-balance cap on ChebIts (replaces the hardcoded 1.5,
	// which pushed nearly all convergence work into the outer PCG loop):
	// level i may spend at most ChebBudget·(m_{i-1}/m_i) inner iterations,
	// keeping one preconditioner application O(ChebBudget·m) work. The
	// default 3 trades ~1.5× per-application work for a 1.7–2.6× cut in
	// outer iterations on the benchmark testbed and near-flat iteration
	// growth with n (the measured ⌈√κ⌉ schedule binds before the budget on
	// well-sparsified levels). See calibrate.
	ChebBudget float64
	// BudgetLiftVertices lifts the ChebBudget work-balance cap on chains
	// whose TOP level has at least this many vertices, letting every level
	// run its full measured ⌈√κ⌉ Chebyshev schedule. At small sizes the
	// budget wins: the outer PCG loop is cheap, so weak inner solves trade
	// well. At large sizes each outer iteration sweeps the full top-level
	// working set from DRAM, so the balance inverts — spending the measured
	// iteration count inside the (smaller, cache-resident) deeper levels
	// cuts outer iterations where they are most expensive. 0 means the
	// default threshold (65536 vertices, ~256×256 grid); negative disables
	// the lift entirely (budget always applies).
	BudgetLiftVertices int
	Seed               int64
}

// DefaultChainParams returns the settings used by the public solver API.
func DefaultChainParams() ChainParams {
	return ChainParams{
		Sparsify:           DefaultSparsifyParams(),
		BottomFloor:        100,
		MaxBottomVertices:  1500,
		MaxLevels:          8,
		ShrinkRetry:        0.5,
		KappaGrowth:        2,
		ChebSlack:          1.5,
		MaxChebIts:         24,
		MinChebIts:         4,
		CalibIters:         16,
		EigSafety:          1.2,
		ChebBudget:         3,
		BudgetLiftVertices: 65536,
		Seed:               1,
	}
}

// Level is one link A_i → B_i → A_{i+1} of the chain.
type Level struct {
	G       *graph.Graph   // A_i as a graph (conductances)
	Lap     *matrix.Sparse // Laplacian of A_i
	Comp    []int          // connected components of A_i
	NumComp int
	// CompIdx is the component-sorted index over Comp, built once here and
	// reused by every per-iteration masked projection (the segmented-
	// reduction analogue of the elimination's cached reverse index).
	CompIdx *matrix.CompIndex
	Spars   *SparsifyResult // B_i = Spars.H
	Elim    *Elimination    // partial Cholesky B_i → A_{i+1}
	Kappa   float64         // condition target used for B_i
	ChebIts int             // inner Chebyshev iterations ⌈√(EigHi/EigLo)⌉ when recursing
	// EigHi/EigLo bound spec(H⁻¹A) at this level. Both ends are MEASURED at
	// construction time by the Lanczos estimator (spectral.go), padded by
	// EigSafety; EigLo is additionally floored by the static theory envelope
	// EigHi/(κ·ChebSlack), so the calibrated interval is never wider than
	// the pre-measurement schedule would have assumed.
	EigHi, EigLo float64
	// KappaMeasured is the measured condition number λmax/λmin of the
	// preconditioned operator (raw Ritz ratio, before safety padding);
	// 0 when calibration fell back to the static schedule.
	KappaMeasured float64
	// Calibrated reports whether the Lanczos measurement succeeded.
	Calibrated bool
}

// TruncationProbe records one evaluation of the count-based truncation rule
// (ChainParams.BottomSizeEdges ≤ 0) on a level i ≥ 1: the two operation
// counts it compared.
type TruncationProbe struct {
	Level int `json:"level"`
	// SolveOps is 2·nnz(L_i), the multiply-adds of one direct solve at this
	// level; when Abandoned, the value the symbolic factorization had
	// reached when it ran past its budget and gave up.
	SolveOps int64 `json:"solve_ops"`
	// SweepOps is MinChebIts·nnz(Lap_i), the cheapest Chebyshev sweep the
	// level could run. The chain stops here iff SolveOps ≤ SweepOps.
	SweepOps  int64 `json:"sweep_ops"`
	Abandoned bool  `json:"abandoned,omitempty"`
}

// LevelBuild is what building one level cost: wall time per phase and the
// size of its elimination. The entry after the last level describes the
// graph the chain stops at, which is assembled and analyzed but neither
// sparsified nor eliminated.
type LevelBuild struct {
	Level          int     `json:"level"`
	LaplacianMS    float64 `json:"laplacian_ms"`
	FillAnalysisMS float64 `json:"fill_analysis_ms"`
	// SparsifyMS and EliminateMS include the shrink retry when it ran;
	// Rounds and Ops describe the elimination the level kept.
	SparsifyMS  float64 `json:"sparsify_ms"`
	EliminateMS float64 `json:"eliminate_ms"`
	Rounds      int     `json:"elim_rounds"`
	Ops         int     `json:"elim_ops"`
}

// BuildTimings is the chain build's wall time by level and phase, taken
// once by BuildChainOpts. It answers "why did this build take so long";
// nothing reads it back into a decision.
type BuildTimings struct {
	Levels      []LevelBuild `json:"levels"`
	FactorMS    float64      `json:"factor_ms"`
	CalibrateMS float64      `json:"calibrate_ms"`
	TotalMS     float64      `json:"total_ms"`
}

// BuildPhase is one phase's wall time summed over the levels.
type BuildPhase struct {
	Name string
	MS   float64
}

// Phases sums the timings per phase, in build order; "other" is the rest of
// TotalMS (parallel-edge merge, connected components, component indexes).
func (b *BuildTimings) Phases() []BuildPhase {
	var lap, fill, sp, el float64
	for _, l := range b.Levels {
		lap += l.LaplacianMS
		fill += l.FillAnalysisMS
		sp += l.SparsifyMS
		el += l.EliminateMS
	}
	return []BuildPhase{
		{"laplacian", lap}, {"fill_analysis", fill}, {"sparsify", sp}, {"eliminate", el},
		{"factor", b.FactorMS}, {"calibrate", b.CalibrateMS},
		{"other", b.TotalMS - lap - fill - sp - el - b.FactorMS - b.CalibrateMS},
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Chain is the full preconditioning chain (Definition 6.3).
//
// Concurrency contract: a Chain is READ-ONLY after Build returns. All
// level state — graphs, Laplacians, elimination logs, the calibrated
// Chebyshev schedule (calibration runs exclusively at build time) — is
// immutable thereafter, and every per-solve temporary lives in
// solve-call-local buffers, so any number of goroutines may call
// PrecondApply/PrecondApplyW (and the Solver's Solve methods above it)
// concurrently on one Chain. The only mutating fields are the atomic
// bottomSolves counter and the (atomic) work/depth recorder.
type Chain struct {
	Levels  []Level
	Bottom  *matrix.LaplacianFactor
	BottomG *graph.Graph
	Params  ChainParams
	Opt     Options // runtime execution policy threaded into every kernel
	// Probes lists every evaluation of the count-based truncation rule in
	// build order (the last one is the accepting probe when the rule ended
	// the chain); Stop says in words why the chain ends where it does.
	Probes []TruncationProbe
	Stop   string
	// Build is the construction's wall time by level and phase; nil on a
	// chain restored from a snapshot, which was never built here.
	Build *BuildTimings

	bottomSolves atomic.Int64
	// precondApplies counts top-level preconditioner applications — one per
	// applyHTop/applyHTopBlock call regardless of batch width, so a k-column
	// block apply that shares every chain pass across lanes counts once
	// where k single applies would count k times.
	precondApplies atomic.Int64
	rec            *wd.Recorder
	// ws pools per-solve workspaces for the public PrecondApply entry
	// points (the Solver keeps its own pool for full solves). Like the
	// bottomSolves counter it is internally synchronized and exempt from
	// the read-only-after-build contract.
	ws wsPool
}

// bottomSolveOps is the analytic work of one bottom solve: the forward and
// backward sweeps over L plus the diagonal.
func (c *Chain) bottomSolveOps() int64 {
	return 2*int64(c.Bottom.NNZ()) + int64(c.Bottom.GroundedLen())
}

// BottomSolves returns the number of bottom-level direct solves performed
// so far — the quantity Π√κᵢ that Lemma 6.6's depth bound counts.
func (c *Chain) BottomSolves() int64 { return c.bottomSolves.Load() }

// PrecondApplies returns the number of top-level preconditioner applications
// performed so far. A batched apply counts ONE regardless of its width —
// the ratio of right-hand sides served to PrecondApplies is the chain-pass
// sharing the batch engine exists for.
func (c *Chain) PrecondApplies() int64 { return c.precondApplies.Load() }

// BuildChain constructs the preconditioner chain for the Laplacian graph g
// with the default execution policy. The recorder (optional) accumulates
// construction work/depth.
func BuildChain(g *graph.Graph, p ChainParams, rec *wd.Recorder) (*Chain, error) {
	return BuildChainOpts(g, p, Options{}, rec)
}

// BuildChainOpts is BuildChain with an explicit execution policy: every
// parallel kernel in construction (Laplacian CSR builds, parallel-edge
// merging, elimination sweeps, calibration) runs with opt.Workers.
func BuildChainOpts(g *graph.Graph, p ChainParams, opt Options, rec *wd.Recorder) (*Chain, error) {
	if p.BottomFloor <= 0 {
		p.BottomFloor = 64
	}
	if p.MaxBottomVertices <= 0 {
		p.MaxBottomVertices = 3000
	}
	if p.MaxLevels <= 0 {
		p.MaxLevels = 12
	}
	if p.ChebSlack <= 0 {
		p.ChebSlack = 1.5
	}
	if p.MaxChebIts <= 0 {
		p.MaxChebIts = 24
	}
	if p.MinChebIts <= 0 {
		p.MinChebIts = 4
	}
	if p.CalibIters <= 0 {
		p.CalibIters = 16
	}
	if p.EigSafety <= 1 {
		p.EigSafety = 1.2
	}
	if p.ChebBudget <= 0 {
		p.ChebBudget = 3
	}
	if p.BudgetLiftVertices == 0 {
		p.BudgetLiftVertices = 65536
	}
	if p.KappaGrowth < 1 {
		p.KappaGrowth = 1
	}
	if g.N > math.MaxInt32 {
		return nil, fmt.Errorf("solver: n=%d exceeds the int32 vertex index range of the chain", g.N)
	}
	// The bottom factor's memory bound, in entries of L.
	maxFill := int64(p.MaxBottomVertices) * int64(p.MaxBottomVertices) / 2
	rng := rand.New(rand.NewSource(p.Seed))
	bt := &BuildTimings{}
	c := &Chain{Params: p, Opt: opt, rec: rec, Build: bt}
	w := opt.Workers
	tBuild := time.Now()
	cur := mergeParallelW(w, g)
	kappa := p.Sparsify.Kappa
	// lap, comp, k describe cur; sym is cur's symbolic factorization once a
	// truncation probe has accepted it.
	var (
		lap  *matrix.Sparse
		comp []int
		k    int
		sym  *matrix.LaplacianSymbolic
	)
	for {
		i := len(c.Levels)
		bt.Levels = append(bt.Levels, LevelBuild{Level: i})
		lb := &bt.Levels[i]
		t0 := time.Now()
		lap = matrix.LaplacianOfW(w, cur)
		lb.LaplacianMS = ms(time.Since(t0))
		comp, k = cur.ConnectedComponents()
		if i >= p.MaxLevels {
			c.Stop = fmt.Sprintf("MaxLevels %d reached", p.MaxLevels)
			break
		}
		if p.BottomSizeEdges > 0 && cur.M() <= p.BottomSizeEdges {
			c.Stop = fmt.Sprintf("level %d has %d edges <= BottomSizeEdges %d", i, cur.M(), p.BottomSizeEdges)
			break
		}
		if cur.N <= p.BottomFloor {
			c.Stop = fmt.Sprintf("level %d has %d vertices <= BottomFloor %d", i, cur.N, p.BottomFloor)
			break
		}
		if p.BottomSizeEdges <= 0 && i >= 1 {
			// Count-based truncation: analyze cur's factor, giving up as
			// soon as it cannot win (or cannot fit the memory bound).
			probe := TruncationProbe{Level: i, SweepOps: int64(p.MinChebIts) * int64(lap.NNZ())}
			t0 = time.Now()
			s, fill, err := matrix.AnalyzeLaplacian(lap, comp, k, min(probe.SweepOps/2, maxFill))
			lb.FillAnalysisMS = ms(time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("solver: level %d analysis: %w", i, err)
			}
			probe.SolveOps, probe.Abandoned = 2*fill, s == nil
			c.Probes = append(c.Probes, probe)
			if s != nil {
				sym = s
				c.Stop = fmt.Sprintf("level %d: direct solve 2*nnz(L)=%d <= cheapest sweep MinChebIts*nnz(Lap)=%d", i, probe.SolveOps, probe.SweepOps)
				break
			}
		}
		sp := p.Sparsify
		sp.Workers = w
		sp.Kappa = kappa
		kappa *= p.KappaGrowth
		// sparsifyEliminate builds B_i and its partial Cholesky, timed.
		sparsifyEliminate := func() (*SparsifyResult, *Elimination) {
			t0 := time.Now()
			res := IncrementalSparsify(cur, sp, rng, rec)
			t1 := time.Now()
			elim := GreedyEliminationW(w, res.H, rng, rec)
			lb.SparsifyMS += ms(t1.Sub(t0))
			lb.EliminateMS += ms(time.Since(t1))
			return res, elim
		}
		res, elim := sparsifyEliminate()
		// The shrink-retry decision uses the MEASURED edge shrink but the
		// nominal κ for the retry: a level's measured condition number needs
		// the completed chain below it (calibrate's Lanczos applies the full
		// recursive preconditioner), which does not exist yet mid-build.
		// Calibration then measures the retried level like any other, so a
		// coarser retry still ends up with a measured, not assumed, interval.
		if float64(elim.Reduced.M()) > p.ShrinkRetry*float64(cur.M()) {
			// Retry once with a coarser preconditioner.
			sp.Kappa *= 2
			res, elim = sparsifyEliminate()
			if float64(elim.Reduced.M()) > p.ShrinkRetry*float64(cur.M()) {
				c.Stop = fmt.Sprintf("level %d does not shrink by ShrinkRetry %g", i, p.ShrinkRetry)
				break // cannot shrink further; truncate here
			}
		}
		its := int(math.Ceil(math.Sqrt(sp.Kappa * p.ChebSlack)))
		if its > p.MaxChebIts {
			its = p.MaxChebIts
		}
		lvl := Level{
			G: cur, Lap: lap, Comp: comp, NumComp: k,
			CompIdx: matrix.NewCompIndexW(w, comp, k),
			Spars:   res, Elim: elim, Kappa: sp.Kappa,
			ChebIts: its, EigHi: 1, EigLo: 1 / (sp.Kappa * p.ChebSlack),
		}
		c.Levels = append(c.Levels, lvl)
		lb.Rounds, lb.Ops = elim.Rounds, len(elim.Ops)
		cur = elim.Reduced
	}
	if sym == nil {
		t0 := time.Now()
		s, fill, err := matrix.AnalyzeLaplacian(lap, comp, k, maxFill)
		bt.Levels[len(c.Levels)].FillAnalysisMS += ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("solver: bottom analysis: %w", err)
		}
		if s == nil {
			return nil, fmt.Errorf("solver: chain truncation (%s) left %d vertices, %d edges whose sparse factor passes nnz(L)=%d, over the MaxBottomVertices bound %d^2/2; increase MaxLevels or adjust sparsifier",
				c.Stop, cur.N, cur.M(), fill, p.MaxBottomVertices)
		}
		sym = s
	}
	t0 := time.Now()
	bf, err := sym.FactorW(w, lap)
	bt.FactorMS = ms(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("solver: bottom factorization: %w", err)
	}
	c.Bottom = bf
	c.BottomG = cur
	// Sparse factorization: Σ|col|² work; the column sweep is sequential.
	rec.Add(sym.Flops(), int64(bf.GroundedLen()))
	t0 = time.Now()
	c.calibrate(rng)
	bt.CalibrateMS = ms(time.Since(t0))
	bt.TotalMS = ms(time.Since(tBuild))
	return c, nil
}

// calibrate finalizes the chain's runtime schedule bottom-up, measuring
// instead of assuming:
//
//  1. Work balance. The theory affords ⌈√κᵢ⌉ recursive calls per level
//     because its levels shrink by κ^Ω(1) ≫ √κ; at practical sizes the
//     measured shrink is a small constant, so a √κ budget makes total work
//     grow geometrically with depth. Each level's Chebyshev budget is
//     capped at ChebBudget × the measured shrink m_{i-1}/m_i (and by √κ
//     and MaxChebIts), which keeps one top-level preconditioner
//     application at O(m) work — the near-linear-work discipline of
//     Theorem 1.1 — and lets the adaptive outer iteration absorb the
//     weaker inner solves.
//  2. Spectral bounds. Measure BOTH ends of each level's preconditioned
//     spectrum spec(H⁻¹A) with the Lanczos estimator (spectral.go) and set
//     the Chebyshev interval to the safety-padded measurement, floored by
//     the static theory envelope EigHi/(κ·ChebSlack). The per-level
//     iteration count becomes ⌈√(EigHi/EigLo)⌉ — the measured condition
//     number, not the nominal κ·slack product, so levels whose sparsifier
//     beat its target run proportionally fewer (and better-centered)
//     Chebyshev iterations. Without the measured upper bound a single
//     under-sampled edge can push spec(H⁻¹A) above the assumed interval,
//     where a fixed-degree Chebyshev polynomial blows up exponentially.
//
// The loop runs bottom-up and finalizes each level's ChebIts BEFORE
// measuring the level above, so every measurement sees the actual adapted
// preconditioner it will run against. The rng is consumed in a fixed
// sequential order and every kernel uses par's fixed reduction trees, so
// the calibrated schedule is bitwise identical for every worker count.
func (c *Chain) calibrate(rng *rand.Rand) {
	if len(c.Levels) == 0 {
		return
	}
	w := c.Opt.Workers
	p := &c.Params
	ws := newWorkspace(c, 1)
	// Size-adaptive schedule policy: past the lift threshold the work-balance
	// budget stops binding and every level runs its measured ⌈√κ⌉ count (see
	// ChainParams.BudgetLiftVertices for the rationale).
	lift := p.BudgetLiftVertices > 0 && c.Levels[0].G.N >= p.BudgetLiftVertices
	// Work-balance budget per level from the measured shrink. lvl.ChebIts
	// still holds the static ⌈√(κ·slack)⌉ cap from the build loop.
	budget := make([]int, len(c.Levels))
	for i := range c.Levels {
		lvl := &c.Levels[i]
		prevM := lvl.G.M() // top level: budget vs itself (outer is adaptive)
		if i > 0 {
			prevM = c.Levels[i-1].G.M()
		}
		shrink := float64(prevM) / float64(lvl.G.M()+1)
		its := int(math.Ceil(p.ChebBudget * shrink))
		if its < p.MinChebIts {
			its = p.MinChebIts
		}
		if its > lvl.ChebIts {
			its = lvl.ChebIts
		}
		budget[i] = its
	}
	for i := len(c.Levels) - 1; i >= 0; i-- {
		lvl := &c.Levels[i]
		lo, hi, ok := c.lanczosBounds(w, i, p.CalibIters, rng, ws)
		lvl.Calibrated = ok
		if !ok {
			// Unusable measurement: fall back to the static schedule (the
			// envelope the pre-measurement chain would have assumed).
			lvl.EigHi = p.EigSafety
			lvl.EigLo = lvl.EigHi / (lvl.Kappa * p.ChebSlack)
			lvl.KappaMeasured = 0
			if !lift {
				lvl.ChebIts = budget[i]
			}
			continue
		}
		lvl.KappaMeasured = hi / lo
		lvl.EigHi = hi * p.EigSafety
		staticLo := lvl.EigHi / (lvl.Kappa * p.ChebSlack)
		// Asymmetric padding: EigHi gets the full safety margin (outside
		// the interval a fixed-degree Chebyshev polynomial diverges), EigLo
		// only √EigSafety (a slightly-high floor merely under-damps the
		// lowest modes, which the adaptive outer iteration absorbs).
		measLo := lo / math.Sqrt(p.EigSafety)
		if measLo < staticLo {
			measLo = staticLo // safety envelope: never schedule worse than κ·slack
		}
		if measLo > lvl.EigHi/2 {
			measLo = lvl.EigHi / 2 // keep a non-degenerate interval
		}
		lvl.EigLo = measLo
		its := int(math.Ceil(math.Sqrt(lvl.EigHi / lvl.EigLo)))
		if its > budget[i] && i > 0 && !lift {
			its = budget[i]
		}
		if its > p.MaxChebIts {
			its = p.MaxChebIts
		}
		if its < p.MinChebIts {
			its = p.MinChebIts
		}
		lvl.ChebIts = its
	}
	// Seed the chain's workspace pool with the calibration workspace (its
	// footprint charged, so the build-time MemoryBytes snapshot the serving
	// cache budgets against already includes the retained scratch) — the
	// first PrecondApply reuses it.
	c.ws.seed(ws)
}

// mergeParallelW merges parallel edges (summing conductances) and drops
// self-loops and zero-weight edges, row by row over g's CSR: each vertex
// sorts and merges its half-edges to higher-numbered neighbours, so the
// result lists every edge once, U < V, in (U, V) order. Parallel edges are
// summed in input order (adjacency order is edge-list order), for every
// worker count.
func mergeParallelW(workers int, g *graph.Graph) *graph.Graph {
	n := g.N
	ents := make([]matrix.RowEntry, len(g.Adj))
	cnt := make([]int, n)
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := ents[g.Off[u]:g.Off[u+1]]
			k := 0
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				if v, w := g.Adj[i], g.Wt[i]; v > u && w != 0 {
					row[k] = matrix.RowEntry{Col: int32(v), Val: w}
					k++
				}
			}
			cnt[u] = matrix.SortMergeRow(row[:k])
		}
	})
	off := par.ScanW(workers, cnt)
	edges := make([]graph.Edge, off[n])
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for j, e := range ents[g.Off[u] : g.Off[u]+cnt[u]] {
				edges[off[u]+j] = graph.Edge{U: u, V: int(e.Col), W: e.Val}
			}
		}
	})
	return graph.FromEdgesW(workers, n, edges)
}

// mergeParallel is mergeParallelW with the default worker count.
func mergeParallel(g *graph.Graph) *graph.Graph { return mergeParallelW(0, g) }

// Depth returns the number of levels above the bottom solve.
func (c *Chain) Depth() int { return len(c.Levels) }

// MemoryBytes estimates the chain's retained footprint: per level the graph,
// its Laplacian, the sparsifier output and the elimination log; at the bottom
// the sparse factorization. Each elimination's Reduced graph is the next
// level's G (the same object), so it is counted exactly once.
func (c *Chain) MemoryBytes() int64 {
	var b int64
	for i := range c.Levels {
		lvl := &c.Levels[i]
		b += lvl.G.MemoryBytes() + lvl.Lap.MemoryBytes()
		b += int64(len(lvl.Comp)) * 8
		if lvl.CompIdx != nil {
			b += lvl.CompIdx.MemoryBytes()
		}
		if lvl.Spars != nil {
			b += lvl.Spars.H.MemoryBytes() + int64(len(lvl.Spars.Subgraph))*8
		}
		b += lvl.Elim.MemoryBytes()
	}
	if c.BottomG != nil {
		b += c.BottomG.MemoryBytes()
	}
	if c.Bottom != nil {
		b += c.Bottom.MemoryBytes()
	}
	// Workspace pool: the high-water estimate of per-solve scratch retained
	// between GCs by the chain's own PrecondApply pool.
	b += c.ws.PeakBytes()
	return b
}

// LevelSchedule is one level's calibrated runtime schedule — the quantities
// a serving layer exposes so κ-schedule behavior is observable in
// production. KappaTarget is the nominal κ fed to the sparsifier;
// KappaMeasured the measured condition number of the preconditioned
// operator (0 when calibration fell back to the static envelope).
type LevelSchedule struct {
	Level         int     `json:"level"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	KappaTarget   float64 `json:"kappa_target"`
	KappaMeasured float64 `json:"kappa_measured"`
	EigLo         float64 `json:"eig_lo"`
	EigHi         float64 `json:"eig_hi"`
	ChebIts       int     `json:"cheb_its"`
	Calibrated    bool    `json:"calibrated"`
	// Probe is the truncation rule's evaluation of this level (count-based
	// chains, levels ≥ 1): the chain recursed through the level because a
	// direct solve here would have cost more than SweepOps.
	Probe *TruncationProbe `json:"probe,omitempty"`
}

// BottomSchedule describes where and why the chain stops: the graph the
// direct solver factors, the size of its sparse factor, and the truncation
// decision.
type BottomSchedule struct {
	Level int `json:"level"`
	N     int `json:"n"`
	M     int `json:"m"`
	// NNZL is nnz(L) of the sparse LDLᵀ bottom factor; one bottom solve
	// costs 2·NNZL multiply-adds.
	NNZL int `json:"nnz_l"`
	// Stop says why the chain ends at this level.
	Stop string `json:"stop"`
	// Probe is the accepting evaluation of the count-based rule, nil when
	// another condition (BottomSizeEdges, BottomFloor, MaxLevels, a level
	// that would not shrink) ended the chain.
	Probe *TruncationProbe `json:"probe,omitempty"`
}

// probeAt returns the truncation probe recorded for level i, if any.
func (c *Chain) probeAt(i int) *TruncationProbe {
	for j := range c.Probes {
		if c.Probes[j].Level == i {
			return &c.Probes[j]
		}
	}
	return nil
}

// BottomInfo reports the chain's truncation: together with Schedule's
// per-level probes it answers "why is this chain N levels deep".
func (c *Chain) BottomInfo() BottomSchedule {
	return BottomSchedule{
		Level: len(c.Levels), N: c.BottomG.N, M: c.BottomG.M(),
		NNZL: c.Bottom.NNZ(), Stop: c.Stop, Probe: c.probeAt(len(c.Levels)),
	}
}

// Schedule returns the calibrated per-level schedule (top level first).
func (c *Chain) Schedule() []LevelSchedule {
	out := make([]LevelSchedule, len(c.Levels))
	for i := range c.Levels {
		lvl := &c.Levels[i]
		out[i] = LevelSchedule{
			Level: i, N: lvl.G.N, M: lvl.G.M(),
			KappaTarget: lvl.Kappa, KappaMeasured: lvl.KappaMeasured,
			EigLo: lvl.EigLo, EigHi: lvl.EigHi,
			ChebIts: lvl.ChebIts, Calibrated: lvl.Calibrated,
			Probe: c.probeAt(i),
		}
	}
	return out
}

// EdgeCounts returns the edge count of every level plus the bottom graph,
// the m_i sequence of Lemma 6.6.
func (c *Chain) EdgeCounts() []int {
	var out []int
	for _, l := range c.Levels {
		out = append(out, l.G.M())
	}
	out = append(out, c.BottomG.M())
	return out
}

// solveLevel approximately solves A_i x = b by preconditioned Chebyshev
// iteration with the next level as preconditioner; the bottom level solves
// exactly (Lemma 6.7 / 6.8 recursion). The result lives in ws (the level's
// Chebyshev x, or the bottom solution buffer) and stays valid until the
// level's scratch is next used.
func (c *Chain) solveLevel(workers, i int, b []float64, ws *workspace) []float64 {
	if i >= len(c.Levels) {
		c.bottomSolves.Add(1)
		c.rec.Add(c.bottomSolveOps(), int64(c.Bottom.GroundedLen()))
		t0 := time.Now()
		c.Bottom.SolveIntoW(workers, b, ws.bot.x.Vec(), ws.bot.g.Vec())
		ws.trace.BottomNS += time.Since(t0).Nanoseconds()
		return ws.bot.x.Vec()
	}
	return c.chebLevel(workers, i, b, ws)
}

// chebLevel runs level i's fixed-degree preconditioned Chebyshev iteration
// (the recurrence of iterative.go's chebyshev, specialized to the chain) on
// workspace-resident vectors: spec(M⁻¹A) ⊆ [EigLo, EigHi], exactly ChebIts
// iterations, preconditioned by applyH(i). Keeping the recursion closure-
// free and the scratch level-resident is what makes a steady-state
// preconditioner application allocation-free.
func (c *Chain) chebLevel(workers, i int, b []float64, ws *workspace) []float64 {
	lvl := &c.Levels[i]
	a := lvl.Lap
	ci := lvl.CompIdx
	l := &ws.lvl[i]
	x, r, p, ap := l.chebX.Vec(), l.chebR.Vec(), l.chebP.Vec(), l.chebAp.Vec()
	n := a.N
	// Stage timing: the sweep's own kernel time, EXCLUSIVE of the recursive
	// preconditioner applications (those attribute to deeper levels' trace
	// slots), so the per-level stage series partition the apply time.
	t0 := time.Now()
	var innerNS int64
	for j := 0; j < n; j++ {
		x[j] = 0
	}
	copy(r, b)
	matrix.ProjectOutConstantMaskedIdxW(workers, r, ci)
	co := newChebCoeffs(lvl.EigLo, lvl.EigHi)
	for k := 0; k < lvl.ChebIts; k++ {
		ta := time.Now()
		z := c.applyH(workers, i, r, ws)
		innerNS += time.Since(ta).Nanoseconds()
		matrix.ProjectOutConstantMaskedIdxW(workers, z, ci)
		alpha, beta, first := co.step(k)
		if first {
			copy(p, z)
		} else {
			matrix.AxpyIntoW(workers, p, beta, p, z)
		}
		matrix.AxpyIntoW(workers, x, alpha, p, x)
		a.MulVecW(workers, p, ap)
		matrix.AxpyIntoW(workers, r, -alpha, ap, r)
		c.rec.Add(int64(a.NNZ()+6*n), 2)
	}
	matrix.ProjectOutConstantMaskedIdxW(workers, x, ci)
	ws.trace.ChebNS[obs.LevelIndex(i)] += time.Since(t0).Nanoseconds() - innerNS
	return x
}

// applyH solves the preconditioner system H_i z = r by partial-Cholesky
// elimination into A_{i+1}, a recursive solve there, and back-substitution,
// entirely in level-resident workspace buffers. The κ scaling of the
// subgraph inside H is part of H's definition, so no extra scaling appears
// here. The returned z is ws's level-i back-substitution buffer.
func (c *Chain) applyH(workers, i int, r []float64, ws *workspace) []float64 {
	lvl := &c.Levels[i]
	l := &ws.lvl[i]
	li := obs.LevelIndex(i)
	t0 := time.Now()
	lvl.Elim.ForwardRHSIntoW(workers, r, l.fwdWork.Vec(), l.fwdCarry.Vec(), l.fwdRed.Vec())
	ws.trace.FwdNS[li] += time.Since(t0).Nanoseconds()
	xr := c.solveLevel(workers, i+1, l.fwdRed.Vec(), ws)
	t1 := time.Now()
	lvl.Elim.BackSolveIntoW(workers, xr, l.fwdCarry.Vec(), l.backX.Vec())
	z := l.backX.Vec()
	matrix.ProjectOutConstantMaskedIdxW(workers, z, lvl.CompIdx)
	ws.trace.BackNS[li] += time.Since(t1).Nanoseconds()
	c.rec.Add(int64(len(lvl.Elim.Ops))+int64(len(r)), int64(lvl.Elim.Rounds)+1)
	return z
}

// applyHTop applies the whole-chain preconditioner into ws and returns the
// workspace-resident result (valid until ws is reused).
func (c *Chain) applyHTop(workers int, r []float64, ws *workspace) []float64 {
	c.precondApplies.Add(1)
	t0 := time.Now()
	var z []float64
	if len(c.Levels) == 0 {
		c.Bottom.SolveIntoW(workers, r, ws.bot.x.Vec(), ws.bot.g.Vec())
		z = ws.bot.x.Vec()
		ws.trace.BottomNS += time.Since(t0).Nanoseconds()
	} else {
		z = c.applyH(workers, 0, r, ws)
	}
	ws.trace.PrecondNS += time.Since(t0).Nanoseconds()
	return z
}

// PrecondApply exposes one application of the top-level preconditioner
// (H_1⁻¹ through the whole chain), used by the PCG driver and experiments.
// Safe for concurrent use (see the Chain concurrency contract).
func (c *Chain) PrecondApply(r []float64) []float64 {
	return c.PrecondApplyW(c.Opt.Workers, r)
}

// PrecondApplyW is PrecondApply with a per-call worker count, letting a
// serving layer split a global worker budget across concurrent solves
// without rebuilding the chain. Results are bitwise identical for every
// workers value. The returned vector is freshly allocated (caller-owned);
// repeated callers who want the allocation-free path should use
// PrecondApplyIntoW.
func (c *Chain) PrecondApplyW(workers int, r []float64) []float64 {
	out := make([]float64, len(r))
	c.PrecondApplyIntoW(workers, r, out)
	return out
}

// PrecondApplyIntoW applies the top-level preconditioner into dst (length
// n, fully overwritten; dst must not alias r). Scratch comes from the
// chain's workspace pool, so steady-state applications perform zero heap
// allocations at Workers:1 (locked by the solver package's allocation
// test). Safe for concurrent use.
func (c *Chain) PrecondApplyIntoW(workers int, r, dst []float64) {
	ws := c.ws.get(c, 1)
	copy(dst, c.applyHTop(workers, r, ws))
	c.ws.put(ws)
}
