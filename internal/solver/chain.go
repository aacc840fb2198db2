package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/par"
	"parlap/internal/wd"
)

// ChainParams controls preconditioner-chain construction (Definition 6.3
// with the Section 6.3 truncation).
type ChainParams struct {
	Sparsify SparsifyParams
	// BottomSizeEdges > 0 truncates the chain once a level has at most this
	// many edges (§6.3's size rule; tests pin chain depth with it). ≤0, the
	// default, selects the count-based rule instead, which stops the chain
	// at a level i ≥ 1 wherever a direct solve there (2·nnz(L_i) + kept_i
	// ops with its sparse bottom factor) costs no more than recursing
	// through it. Two checks apply it:
	//   - on the way down, the build stops at the first level whose factor
	//     satisfies 2·nnz(L_i) ≤ MinChebIts·nnz(Lap_i), the cheapest sweep
	//     a recursion could ever run (a sufficient condition, and cheap);
	//   - calibrate then evaluates cost_i = min(direct_i,
	//     ChebIts_i·(nnz(Lap_i) + elimination ops + cost_{i+1})) bottom-up
	//     with the final schedule, and cuts the chain at every level where
	//     the direct side wins, dropping the levels below it.
	// §6.3 stops at m^(1/3) because its levels shrink by κ^Ω(1); at serving
	// sizes they shrink 3–4× while every level multiplies the visits below
	// it by its Chebyshev count, so the balance point is set from these
	// exact operation counts, never from a timer.
	BottomSizeEdges int
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
	// MinChebIts floors the calibrated per-level iteration count. Default 4.
	MinChebIts int
	Seed       int64
}

// The fixed part of the chain schedule: values no caller has needed to vary.
const (
	// bottomFloor is the vertex count at or below which a graph is solved
	// directly without building a level (avoids silly chains on small
	// inputs).
	bottomFloor = 100
	// chebSlack multiplies κ when setting the STATIC Chebyshev lower bound
	// EigHi/(κ·chebSlack), absorbing the sampling constants in H ⪯ O(κ)·G.
	// Since calibration measures the interval, this bound only acts as the
	// safety envelope: the measured EigLo is never allowed below it.
	chebSlack = 1.5
	// maxChebIts caps the per-level Chebyshev iteration count ⌈√κ⌉,
	// bounding the recursion fan-out.
	maxChebIts = 24
	// calibIters is the Lanczos iteration count per level used to measure
	// both ends of spec(H⁻¹A) at calibration time.
	calibIters = 16
	// eigSafety pads the measured spectral bounds — EigHi = λmax·eigSafety,
	// EigLo = λmin/√eigSafety — because Ritz values approach the spectrum
	// from inside; the upper end gets the full margin (beyond it a fixed-
	// degree Chebyshev polynomial diverges), the lower end only a square
	// root (a high floor merely under-damps the lowest modes).
	eigSafety = 1.2
	// chebBudget multiplies the measured per-level shrink m_{i-1}/m_i to
	// form the work-balance cap on ChebIts: level i may spend at most
	// chebBudget·(m_{i-1}/m_i) inner iterations, keeping one preconditioner
	// application O(chebBudget·m) work. 3 trades ~1.5× per-application work
	// for a 1.7–2.6× cut in outer iterations against 1.5 on the benchmark
	// testbed (the measured ⌈√κ⌉ schedule binds before the budget on
	// well-sparsified levels). See calibrate.
	chebBudget = 3
)

// DefaultChainParams returns the settings used by the public solver API.
func DefaultChainParams() ChainParams {
	return ChainParams{
		Sparsify:          DefaultSparsifyParams(),
		MaxBottomVertices: 1500,
		MaxLevels:         8,
		ShrinkRetry:       0.5,
		KappaGrowth:       2,
		MinChebIts:        4,
		Seed:              1,
	}
}

// WithDefaults returns p with every non-positive field that has no meaning
// at zero (MaxBottomVertices, MaxLevels, ShrinkRetry, KappaGrowth,
// MinChebIts) set to DefaultChainParams()'s value. BottomSizeEdges ≤ 0
// selects the count-based truncation rule and Seed 0 is a seed, so both are
// kept; Sparsify is taken as given. BuildChainOpts builds with
// p.WithDefaults() and the chain records it as its Params.
func (p ChainParams) WithDefaults() ChainParams {
	d := DefaultChainParams()
	if p.MaxBottomVertices <= 0 {
		p.MaxBottomVertices = d.MaxBottomVertices
	}
	if p.MaxLevels <= 0 {
		p.MaxLevels = d.MaxLevels
	}
	if p.ShrinkRetry <= 0 {
		p.ShrinkRetry = d.ShrinkRetry
	}
	if p.KappaGrowth <= 0 {
		p.KappaGrowth = d.KappaGrowth
	}
	if p.MinChebIts <= 0 {
		p.MinChebIts = d.MinChebIts
	}
	return p
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
	Sampled int          // off-subgraph edges sampled into B_i (B_i itself is not kept)
	Elim    *Elimination // partial Cholesky B_i → A_{i+1}
	Kappa   float64      // condition target used for B_i
	// The schedule below is set for levels i ≥ 1 only: the outer PCG
	// iterates on level 0, which runs no sweep and keeps all zeros.
	ChebIts int // inner Chebyshev iterations ⌈√(EigHi/EigLo)⌉ when recursing
	// EigHi/EigLo bound spec(H⁻¹A) at this level. Both ends are MEASURED at
	// construction time by the Lanczos estimator (spectral.go), padded by
	// eigSafety; EigLo is additionally floored by the static theory envelope
	// EigHi/(κ·chebSlack), so the calibrated interval is never wider than
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
// (ChainParams.BottomSizeEdges ≤ 0) on a level i ≥ 1: the direct side and
// the recursion side of the comparison. The chain stops at level i iff the
// probe is not Abandoned and SolveOps ≤ SweepOps. A level keeps one probe:
// calibrate's exact probe replaces the one the build made on the way down,
// except at a bottom that the way-down probe accepted.
type TruncationProbe struct {
	Level int `json:"level"`
	// SolveOps is 2·nnz(L_i), the multiply-adds of one direct solve at this
	// level; when Abandoned, the value the symbolic factorization had
	// reached when it ran past its budget and gave up.
	SolveOps int64 `json:"solve_ops"`
	// SweepOps is what recursing through the level costs, less the kept_i
	// divisions by D that a direct solve adds to SolveOps. On the way down
	// it is the floor MinChebIts·nnz(Lap_i), the cheapest Chebyshev sweep
	// the level could run; calibrate's exact probe counts the recursion it
	// would replace, solveCost(i) − kept_i. The analysis is abandoned once
	// SolveOps/2 passes min(SweepOps/2, the MaxBottomVertices bound).
	SweepOps  int64 `json:"sweep_ops"`
	Abandoned bool  `json:"abandoned,omitempty"`
}

// LevelBuild is what building one level cost: wall time per phase and the
// size of its elimination. The last entry describes the graph the build
// stopped at on the way down, which is assembled and analyzed but neither
// sparsified nor eliminated. When calibrate cuts the chain at level i, the
// entries from i on stay: level i's (now the bottom's) adds the cut's fill
// analysis, and those past it are the levels the cut dropped.
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
// nothing reads it back into a decision. FactorMS counts every bottom
// factorization the build ran, the one a cut replaced included;
// CalibrateMS excludes the cut's analysis and factorization.
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
// PrecondApplyIntoW (and the Solver's Solve methods above it) concurrently
// on one Chain. The only mutating fields are internally synchronized: the
// atomic bottomSolves and precondApplies counters and the ws workspace pool.
type Chain struct {
	Levels  []Level
	Bottom  *matrix.LaplacianFactor
	BottomG *graph.Graph
	Params  ChainParams
	Opt     Options // runtime execution policy threaded into every kernel
	// Probes holds the count-based truncation rule's evaluation of each
	// level i ≥ 1 it reached, by level (the last one is the accepting probe
	// when the rule ended the chain); Stop says in words why the chain ends
	// where it does.
	Probes []TruncationProbe
	Stop   string
	// Build is the construction's wall time by level and phase; nil on a
	// chain restored from a snapshot, which was never built here.
	Build *BuildTimings

	// bottomLap is the bottom graph's Laplacian, kept only when the chain
	// has no level: the outer PCG then iterates on it (see Top).
	bottomLap    *matrix.Sparse
	bottomSolves atomic.Int64
	// precondApplies counts top-level preconditioner applications — one per
	// applyHTopBlock call regardless of batch width, so a lane group that
	// shares every chain pass across its lanes counts once per iteration
	// where its lanes solved alone would count once each. A block solve
	// split into g lane groups counts one pass per group per iteration.
	precondApplies atomic.Int64
	// applyWork and applyDepth are applyCost, which every solve charges
	// per top-level preconditioner application.
	applyWork, applyDepth int64
	// ws pools the per-solve workspaces every solve and PrecondApplyIntoW
	// draws from. Like the bottomSolves counter it is internally
	// synchronized and exempt from the read-only-after-build contract.
	ws wsPool
}

// applyCost is the analytic (work, depth) of one top-level preconditioner
// application to one lane: applyH(0), or a bottom solve for a chain with no
// level. It follows the recursion the apply runs:
//
//	applyH(i)      = (|Ops_i| + n_i, Rounds_i + 1) + solve(i+1)
//	solve(i)       = ChebIts_i · (applyH(i) + (nnz_i + 6n_i, 2))
//	solve(bottom)  = (2·nnz(L) + grounded, grounded)
func (c *Chain) applyCost() (work, depth int64) {
	if len(c.Levels) == 0 {
		return c.solveCost(0)
	}
	return c.applyHCost(0)
}

// applyHCost is the one-lane cost of applyHBlock(i).
func (c *Chain) applyHCost(i int) (work, depth int64) {
	el := c.Levels[i].Elim
	work, depth = c.solveCost(i + 1)
	return work + int64(len(el.Ops)+el.OrigN), depth + int64(el.Rounds) + 1
}

// solveCost is the one-lane cost of solveLevelBlock(i).
func (c *Chain) solveCost(i int) (work, depth int64) {
	if i >= len(c.Levels) {
		g := int64(c.Bottom.GroundedLen())
		return 2*int64(c.Bottom.NNZ()) + g, g
	}
	lvl := &c.Levels[i]
	hw, hd := c.applyHCost(i)
	its := int64(lvl.ChebIts)
	return its * (hw + int64(lvl.Lap.NNZ()+6*lvl.Lap.N)), its * (hd + 2)
}

// ready finishes a built or restored chain: it sets the apply cost from the
// final schedule, zeroes the counters calibration's applications advanced,
// and leaves one charged width-1 workspace in the pool, so a MemoryBytes
// taken right after build or restore already counts it.
func (c *Chain) ready() {
	c.applyWork, c.applyDepth = c.applyCost()
	c.bottomSolves.Store(0)
	c.precondApplies.Store(0)
	c.ws.put(c.ws.get(c, 1))
}

// BottomSolves returns the number of bottom-level direct solves performed
// by solves so far — the quantity Π√κᵢ that Lemma 6.6's depth bound counts.
// Calibration's build-time solves are not counted, so a built chain and the
// same chain restored from a snapshot report the same numbers.
func (c *Chain) BottomSolves() int64 { return c.bottomSolves.Load() }

// PrecondApplies returns the number of top-level preconditioner applications
// performed so far. A batched apply counts ONE regardless of its width, so
// a block solve counts one pass per lane group per iteration
// (max(min(p, k), ⌈k/4⌉) groups at p workers, so ⌈k/4⌉ at Workers:1; see
// Solver.SolveBlockTraced) — the ratio of right-hand sides served
// to PrecondApplies is the chain-pass sharing the batch engine exists for.
func (c *Chain) PrecondApplies() int64 { return c.precondApplies.Load() }

// BuildChain constructs the preconditioner chain for the Laplacian graph g
// with the default execution policy. The recorder (optional) accumulates
// construction work/depth: sparsification, elimination and the bottom
// factorization (calibration's Lanczos applications are not charged).
func BuildChain(g *graph.Graph, p ChainParams, rec *wd.Recorder) (*Chain, error) {
	return BuildChainOpts(g, p, Options{}, rec)
}

// BuildChainOpts is BuildChain with an explicit execution policy: every
// parallel kernel in construction (Laplacian CSR builds, parallel-edge
// merging, elimination sweeps, calibration) runs with opt.Workers.
func BuildChainOpts(g *graph.Graph, p ChainParams, opt Options, rec *wd.Recorder) (*Chain, error) {
	p = p.WithDefaults()
	if g.N > math.MaxInt32 {
		return nil, fmt.Errorf("solver: n=%d exceeds the int32 vertex index range of the chain", g.N)
	}
	// The bottom factor's memory bound, in entries of L.
	maxFill := int64(p.MaxBottomVertices) * int64(p.MaxBottomVertices) / 2
	rng := rand.New(rand.NewSource(p.Seed))
	bt := &BuildTimings{}
	c := &Chain{Params: p, Opt: opt, Build: bt}
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
		if cur.N <= bottomFloor {
			c.Stop = fmt.Sprintf("level %d has %d vertices <= bottomFloor %d", i, cur.N, bottomFloor)
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
		// sparsifyEliminate builds B_i and its partial Cholesky, timed; only
		// B_i's sampled-edge count outlives it.
		sparsifyEliminate := func() (int, *Elimination) {
			t0 := time.Now()
			res := IncrementalSparsify(cur, sp, rng, rec)
			t1 := time.Now()
			elim := GreedyEliminationW(w, res.H, rng, rec)
			lb.SparsifyMS += ms(t1.Sub(t0))
			lb.EliminateMS += ms(time.Since(t1))
			return res.Sampled, elim
		}
		sampled, elim := sparsifyEliminate()
		// The shrink-retry decision uses the MEASURED edge shrink but the
		// nominal κ for the retry: a level's measured condition number needs
		// the completed chain below it (calibrate's Lanczos applies the full
		// recursive preconditioner), which does not exist yet mid-build.
		// Calibration then measures the retried level like any other, so a
		// coarser retry still ends up with a measured, not assumed, interval.
		if float64(elim.Reduced.M()) > p.ShrinkRetry*float64(cur.M()) {
			// Retry once with a coarser preconditioner.
			sp.Kappa *= 2
			sampled, elim = sparsifyEliminate()
			if float64(elim.Reduced.M()) > p.ShrinkRetry*float64(cur.M()) {
				c.Stop = fmt.Sprintf("level %d does not shrink by ShrinkRetry %g", i, p.ShrinkRetry)
				break // cannot shrink further; truncate here
			}
		}
		lvl := Level{
			G: cur, Lap: lap, Comp: comp, NumComp: k,
			CompIdx: matrix.NewCompIndexW(w, comp, k),
			Sampled: sampled, Elim: elim, Kappa: sp.Kappa,
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
	if len(c.Levels) == 0 {
		c.bottomLap = lap
	}
	// Sparse factorization: Σ|col|² work; the column sweep is sequential.
	rec.Add(sym.Flops(), int64(bf.GroundedLen()))
	t0 = time.Now()
	cutMS, err := c.calibrate(rng, maxFill, rec)
	bt.CalibrateMS = ms(time.Since(t0)) - cutMS
	if err != nil {
		return nil, err
	}
	c.ready()
	bt.TotalMS = ms(time.Since(tBuild))
	return c, nil
}

// calibrate finalizes the runtime schedule of levels i ≥ 1 bottom-up,
// measuring instead of assuming. Level 0 needs no schedule: the outer PCG
// iterates on it and no Chebyshev sweep ever runs there.
//
//  1. Work balance. The theory affords ⌈√κᵢ⌉ recursive calls per level
//     because its levels shrink by κ^Ω(1) ≫ √κ; at practical sizes the
//     measured shrink is a small constant, so a √κ budget makes total work
//     grow geometrically with depth. Each level's Chebyshev budget is
//     capped at chebBudget × the measured shrink m_{i-1}/m_i (and by the
//     static ⌈√(κ·chebSlack)⌉ and maxChebIts), which keeps one top-level
//     preconditioner application at O(m) work — the near-linear-work
//     discipline of Theorem 1.1 — and lets the adaptive outer iteration
//     absorb the weaker inner solves.
//  2. Spectral bounds. Measure BOTH ends of each level's preconditioned
//     spectrum spec(H⁻¹A) with the Lanczos estimator (spectral.go) and set
//     the Chebyshev interval to the safety-padded measurement, floored by
//     the static theory envelope EigHi/(κ·chebSlack). The per-level
//     iteration count becomes ⌈√(EigHi/EigLo)⌉ — the measured condition
//     number, not the nominal κ·slack product, so levels whose sparsifier
//     beat its target run proportionally fewer (and better-centered)
//     Chebyshev iterations. Without the measured upper bound a single
//     under-sampled edge can push spec(H⁻¹A) above the assumed interval,
//     where a fixed-degree Chebyshev polynomial blows up exponentially.
//  3. Exact truncation (count-based rule only). Once level i's ChebIts is
//     final, solveCost(i) is the counted cost of recursing through it over
//     the chain below, already cut. cutAt makes level i the bottom if a
//     direct solve there costs no more (Lemma 6.6's balance, evaluated as
//     cost_i = min(direct_i, recursion_i) bottom-up).
//
// The loop runs bottom-up and finalizes each level's ChebIts BEFORE
// measuring the level above, so every measurement sees the actual adapted
// preconditioner it will run against. The rng is consumed in a fixed
// sequential order and every kernel uses par's fixed reduction trees, so
// the calibrated schedule and every cut are bitwise identical for every
// worker count. cutMS is the wall time the cut probes spent analyzing and
// factoring, which they record in c.Build themselves.
func (c *Chain) calibrate(rng *rand.Rand, maxFill int64, rec *wd.Recorder) (cutMS float64, err error) {
	if len(c.Levels) < 2 {
		return 0, nil
	}
	ws := c.ws.get(c, 1)
	for i := len(c.Levels) - 1; i >= 1; i-- {
		c.calibrateLevel(i, rng, ws)
		if c.Params.BottomSizeEdges > 0 {
			continue
		}
		cut, t, err := c.cutAt(i, maxFill, rec)
		cutMS += t
		if err != nil {
			return cutMS, err
		}
		if cut {
			// The workspace is shaped for the levels just dropped: start a
			// fresh pool, so MemoryBytes counts only the final chain.
			c.ws = wsPool{}
			ws = c.ws.get(c, 1)
		}
	}
	c.ws.put(ws)
	return cutMS, nil
}

// calibrateLevel sets level i's Chebyshev schedule (steps 1 and 2 of
// calibrate) against the chain below it.
func (c *Chain) calibrateLevel(i int, rng *rand.Rand, ws *workspace) {
	p := &c.Params
	lvl := &c.Levels[i]
	shrink := float64(c.Levels[i-1].G.M()) / float64(lvl.G.M()+1)
	static := min(int(math.Ceil(math.Sqrt(lvl.Kappa*chebSlack))), maxChebIts)
	budget := min(max(int(math.Ceil(chebBudget*shrink)), p.MinChebIts), static)
	lo, hi, ok := c.lanczosBounds(c.Opt.Workers, i, calibIters, rng, ws)
	lvl.Calibrated = ok
	if !ok {
		// Unusable measurement: fall back to the static schedule (the
		// envelope the pre-measurement chain would have assumed).
		lvl.EigHi = eigSafety
		lvl.EigLo = lvl.EigHi / (lvl.Kappa * chebSlack)
		lvl.KappaMeasured = 0
		lvl.ChebIts = budget
		return
	}
	lvl.KappaMeasured = hi / lo
	lvl.EigHi = hi * eigSafety
	staticLo := lvl.EigHi / (lvl.Kappa * chebSlack)
	// Asymmetric padding: EigHi gets the full safety margin (outside
	// the interval a fixed-degree Chebyshev polynomial diverges), EigLo
	// only √eigSafety (a slightly-high floor merely under-damps the
	// lowest modes, which the adaptive outer iteration absorbs).
	measLo := lo / math.Sqrt(eigSafety)
	if measLo < staticLo {
		measLo = staticLo // safety envelope: never schedule worse than κ·slack
	}
	if measLo > lvl.EigHi/2 {
		measLo = lvl.EigHi / 2 // keep a non-degenerate interval
	}
	lvl.EigLo = measLo
	its := min(int(math.Ceil(math.Sqrt(lvl.EigHi/lvl.EigLo))), budget)
	lvl.ChebIts = max(min(its, maxChebIts), p.MinChebIts)
}

// cutAt probes level i, whose schedule and the chain below it are final,
// for a direct solve that costs no more than recursing through it: the fill
// analysis gets the budget 2·nnz(L_i) + kept_i ≤ solveCost(i) (and the
// MaxBottomVertices bound), so it gives up as soon as the recursion has won.
// If the analysis completes, level i is factored and becomes the bottom: the
// levels below it and their probes are dropped. Level i's probe replaces the
// cheaper one the build recorded on the way down. spentMS is the wall time
// of the analysis and the factorization.
func (c *Chain) cutAt(i int, maxFill int64, rec *wd.Recorder) (cut bool, spentMS float64, err error) {
	lvl := &c.Levels[i]
	recur, _ := c.solveCost(i)
	kept := int64(lvl.G.N - lvl.NumComp) // the grounded system's size
	t0 := time.Now()
	s, fill, err := matrix.AnalyzeLaplacian(lvl.Lap, lvl.Comp, lvl.NumComp, min((recur-kept)/2, maxFill))
	analysisMS := ms(time.Since(t0))
	c.Build.Levels[i].FillAnalysisMS += analysisMS
	if err != nil {
		return false, analysisMS, fmt.Errorf("solver: level %d analysis: %w", i, err)
	}
	// Every level i ≥ 1 was probed on the way down; this probe replaces it.
	probe := TruncationProbe{Level: i, SolveOps: 2 * fill, SweepOps: recur - kept, Abandoned: s == nil}
	*c.probeAt(i) = probe
	if s == nil {
		return false, analysisMS, nil
	}
	t0 = time.Now()
	bf, err := s.FactorW(c.Opt.Workers, lvl.Lap)
	factorMS := ms(time.Since(t0))
	c.Build.FactorMS += factorMS
	if err != nil {
		return false, analysisMS + factorMS, fmt.Errorf("solver: level %d factorization: %w", i, err)
	}
	rec.Add(s.Flops(), int64(bf.GroundedLen()))
	c.Stop = fmt.Sprintf("level %d: direct solve 2*nnz(L)+kept=%d <= recursion %d ops (cut bottom-up, depth %d -> %d)",
		i, probe.SolveOps+kept, recur, len(c.Build.Levels)-1, i)
	c.Bottom, c.BottomG = bf, lvl.G
	clear(c.Levels[i:]) // release the dropped levels
	c.Levels = c.Levels[:i]
	c.Probes = slices.DeleteFunc(c.Probes, func(pr TruncationProbe) bool { return pr.Level > i })
	return true, analysisMS + factorMS, nil
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

// Depth returns the number of levels above the bottom solve.
func (c *Chain) Depth() int { return len(c.Levels) }

// Top returns the operator the outer PCG iterates on and its component
// index: level 0's Laplacian and index when the chain has levels, else the
// bottom graph's Laplacian and the bottom factor's index. A Solver shares
// these objects instead of building its own.
func (c *Chain) Top() (*matrix.Sparse, *matrix.CompIndex) {
	if len(c.Levels) == 0 {
		return c.bottomLap, c.Bottom.CompIndex()
	}
	return c.Levels[0].Lap, c.Levels[0].CompIdx
}

// MemoryBytes estimates the chain's retained footprint: per level the graph,
// its Laplacian, the component index and the elimination log; at the bottom
// the graph and the sparse factorization (and, for a chain with no level,
// the bottom Laplacian); and the workspace pool's high-water mark. Each elimination's Reduced graph is the next
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
		b += lvl.Elim.MemoryBytes()
	}
	if c.BottomG != nil {
		b += c.BottomG.MemoryBytes()
	}
	if c.bottomLap != nil {
		b += c.bottomLap.MemoryBytes()
	}
	if c.Bottom != nil {
		b += c.Bottom.MemoryBytes()
	}
	// Workspace pool: the high-water estimate of the per-solve scratch
	// every solve and PrecondApplyIntoW draws from, retained between GCs.
	b += c.ws.PeakBytes()
	return b
}

// LevelSchedule is one level's calibrated runtime schedule — the quantities
// a serving layer exposes so κ-schedule behavior is observable in
// production. KappaTarget is the nominal κ fed to the sparsifier;
// KappaMeasured the measured condition number of the preconditioned
// operator (0 when calibration fell back to the static envelope). Level 0
// is the outer PCG's level: it runs no Chebyshev sweep, so its ChebIts,
// EigLo, EigHi and KappaMeasured are 0 and Calibrated is false.
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
	// another condition (BottomSizeEdges, bottomFloor, MaxLevels, a level
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

// PrecondApplyIntoW applies the top-level preconditioner H_1⁻¹ (the whole
// chain) to r into dst (length n, fully overwritten; dst must not alias r),
// running the apply recursion at width 1 on a view of r. Results are bitwise
// identical for every workers value, so a serving layer may split a global
// worker budget across concurrent calls. Scratch comes from the chain's
// workspace pool, so steady-state applications perform zero heap
// allocations at Workers:1 (locked by the solver package's allocation
// test). Safe for concurrent use (see the Chain concurrency contract).
func (c *Chain) PrecondApplyIntoW(workers int, r, dst []float64) {
	ws := c.ws.get(c, 1)
	rb := matrix.VecBlock(r)
	copy(dst, c.applyHTopBlock(workers, &rb, 1, ws).Vec())
	c.ws.put(ws)
}
