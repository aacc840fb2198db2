package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/decomp"
	"parlap/internal/graph"
	"parlap/internal/graphio"
	"parlap/internal/lowstretch"
	"parlap/internal/matrix"
	"parlap/internal/obs"
	"parlap/internal/par"
	"parlap/internal/solver"
)

// reps shrinks a repetition count for the self-test.
func (r *run) reps(n int) int {
	if r.smoke && n > 3 {
		if n /= 10; n < 3 {
			n = 3
		}
	}
	return n
}

// timed calls fn reps times inside one span and returns the median wall of
// a call: the way every stand-alone layer probe is measured.
func (r *run) timed(name string, parent, reps int, fn func()) float64 {
	reps = r.reps(reps)
	sp := r.spans.begin(fmt.Sprintf("%s x%d", name, reps), parent, name)
	defer r.spans.end(sp)
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// refSpMV is the machine probe: a fixed synthetic CSR product owned by the
// benchmark, so it cannot change with the program. It is sampled between
// the phases of a pass; wall up with ref_spmv_s flat is a code change,
// both up together is the neighbour.
type refSpMV struct {
	off     []int
	col     []int32
	val     []float64
	x, y    []float64
	samples []float64
}

func newRefSpMV() *refSpMV {
	const n, deg = 20000, 5
	rng := rand.New(rand.NewSource(12345))
	m := &refSpMV{off: make([]int, n+1), x: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			m.col = append(m.col, int32(rng.Intn(n)))
			m.val = append(m.val, rng.Float64())
		}
		m.off[i+1] = len(m.col)
		m.x[i] = rng.Float64()
	}
	return m
}

func (m *refSpMV) sample(reps int) {
	off, col, val, x, y := m.off, m.col, m.val, m.x, m.y
	for ; reps > 0; reps-- {
		t0 := time.Now()
		for i := range y {
			var acc float64
			for j := off[i]; j < off[i+1]; j++ {
				acc += val[j] * x[col[j]]
			}
			y[i] = acc
		}
		m.samples = append(m.samples, time.Since(t0).Seconds())
	}
}

// tracePass is the second pass over a workload's inputs: every call the
// benchmark makes into a layer sits inside a span, solves return their
// SolveTrace, and each layer's exported entry points are timed on their
// own. Nothing here feeds an end-to-end metric.
func (r *run) tracePass() error {
	w, res := r.w, r.res
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref := newRefSpMV()
	root := r.spans.begin("bench.run", 0, "run")
	defer r.spans.end(root)

	sp := r.spans.begin("gen.graph", root, "gen")
	t0 := time.Now()
	g := w.graph(r.smoke)
	res.put("gen.graph_s", "s", time.Since(t0).Seconds())
	r.spans.end(sp)
	res.put("graph.components_s", "s", r.timed("graph.components", root, 5, func() { g.ConnectedComponents() }))
	ref.sample(r.reps(30))

	s, err := r.buildProbes(g, root)
	if err != nil {
		return err
	}
	applyBytes := r.chainShape(s)
	ref.sample(r.reps(30))

	// serve_http spends its timed phase on HTTP; its in-process solves are
	// the reference the service overhead is measured against.
	solveBudget := r.seconds
	if w.serve {
		solveBudget = r.seconds / 10
	}
	b0 := rhs(g.N, r.seed, 0)
	x0, apply, inproc := r.solveProbes(s, b0, solveBudget, root)
	ref.sample(r.reps(30))

	cg, jac, cgIts, jacIts := r.baselines(s, b0, root)
	res.put("solver.cg_s", "s", cg)
	res.count("solver.cg_iterations", cgIts)
	res.put("solver.jacobi_s", "s", jac)
	res.count("solver.jacobi_iterations", jacIts)

	r.kernelProbes(g, s, b0, apply, applyBytes, root)
	r.setupLayerProbes(s, root)
	ref.sample(r.reps(30))
	if err := r.chainioProbes(g, s, root); err != nil {
		return err
	}
	line := graphio.AppendVectorRow(nil, x0)
	res.put("graphio.parse_row_s", "s", r.timed("graphio.parse_row", root, 20, func() {
		if _, err := graphio.ParseVectorRow(line); err != nil {
			panic(err) // the row was produced by AppendVectorRow one line up
		}
	}))
	res.put("graphio.append_row_s", "s", r.timed("graphio.append_row", root, 20, func() {
		line = graphio.AppendVectorRow(line[:0], x0)
	}))

	if err := r.serviceProbe(g, s, inproc, root); err != nil {
		return err
	}
	ref.sample(r.reps(30))

	var h obs.Histogram
	n := r.reps(1_000_000)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i)*37 + 1000)
	}
	res.put("obs.hist_observe_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	res.put("bench.ref_spmv_s", "s", median(ref.samples)).Note = fmt.Sprintf("%d samples between phases", len(ref.samples))
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.put("bench.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	res.put("bench.peak_rss_mb", "MB", peakRSSMB())
	res.put("bench.span_coverage", "ratio", r.spans.childCoverage("solver.solve")).Note =
		"median share of a solve span its children cover"
	return nil
}

// buildProbes builds the solver the rest of the pass uses and times the
// construction stage by stage, each stage called on its own with the
// inputs and random stream the chain build gives it.
func (r *run) buildProbes(g *graph.Graph, root int) (*solver.Solver, error) {
	res, wk := r.res, r.w.workers
	p := solver.DefaultChainParams()
	opt := solver.Options{Workers: wk}
	sp := r.spans.begin("solver.new", root, "build")
	s, err := solver.NewWithOptions(g, p, opt, nil)
	r.spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("building the solver: %w", err)
	}
	build := r.timed("solver.build_chain", root, 3, func() {
		if _, err := solver.BuildChainOpts(g, p, opt, nil); err != nil {
			panic(err) // the same call just succeeded inside NewWithOptions
		}
	})
	res.put("solver.build_chain_s", "s", build)
	res.put("solver.new_rest_s", "s", r.timed("solver.new_rest", root, 3, func() {
		comp, k := g.ConnectedComponents()
		matrix.LaplacianOfW(wk, g)
		matrix.NewCompIndexW(wk, comp, k)
	})).Note = "components + Laplacian + component index, the calls NewWithOptions makes after the chain"

	top := g
	if len(s.Chain.Levels) > 0 {
		top = s.Chain.Levels[0].G
	}
	spp := p.Sparsify
	spp.Workers = wk
	var tSp, tEl []float64
	var kept, shrink float64
	for i := 0; i < 3; i++ {
		rng := rand.New(rand.NewSource(p.Seed))
		id := r.spans.begin("solver.sparsify", root, "build-stage")
		t0 := time.Now()
		sr := solver.IncrementalSparsify(top, spp, rng, nil)
		tSp = append(tSp, time.Since(t0).Seconds())
		r.spans.end(id)
		id = r.spans.begin("solver.eliminate", root, "build-stage")
		t0 = time.Now()
		el := solver.GreedyEliminationW(wk, sr.H, rng, nil)
		tEl = append(tEl, time.Since(t0).Seconds())
		r.spans.end(id)
		kept = float64(sr.H.M()) / float64(top.M())
		shrink = float64(el.Reduced.M()) / float64(top.M())
	}
	res.put("solver.sparsify_s", "s", median(tSp))
	res.put("solver.sparsify_kept_share", "ratio", kept).Note = "edges of H / edges of the top graph"
	res.put("solver.eliminate_s", "s", median(tEl))
	res.put("solver.eliminate_shrink", "ratio", shrink).Note = "edges after elimination / edges of the top graph"

	bg := s.Chain.BottomG
	blap := matrix.LaplacianOfW(wk, bg)
	bcomp, bk := bg.ConnectedComponents()
	factor := r.timed("matrix.bottom_factor", root, 5, func() {
		if _, err := matrix.NewLaplacianFactorW(wk, blap, bcomp, bk); err != nil {
			panic(err) // the chain build factored this same matrix
		}
	})
	res.put("matrix.bottom_factor_s", "s", factor)
	res.put("solver.build_other_s", "s", build-median(tSp)-median(tEl)-factor).Note =
		"build_chain - top sparsify - top eliminate - bottom factor: deeper levels + Lanczos calibration"
	return s, nil
}

// chainShape reports the work one preconditioner application is scheduled
// to do, computed from the calibrated schedule, and returns its computed
// byte traffic. Level i ≥ 1 runs a_i = Π_{1≤j≤i} ChebIts_j Chebyshev
// iterations (one SpMV each) per application; level i's elimination log is
// replayed forward and back a_i times (a_0 = 1); the bottom is solved
// a_last times.
func (r *run) chainShape(s *solver.Solver) (applyBytes float64) {
	res := r.res
	sched := s.Chain.Schedule()
	res.count("solver.levels", len(sched))
	for i, m := range s.Chain.EdgeCounts() {
		res.count(fmt.Sprintf("solver.level_edges.l%d", i), m)
	}
	nnz0 := float64(s.Lap.NNZ())
	a, equiv := 1.0, 0.0
	for i := range s.Chain.Levels {
		lvl := &s.Chain.Levels[i]
		res.count(fmt.Sprintf("solver.cheb_its.l%d", i), sched[i].ChebIts)
		res.put(fmt.Sprintf("solver.kappa_measured.l%d", i), "ratio", sched[i].KappaMeasured)
		if i > 0 {
			a *= float64(lvl.ChebIts)
			nnz, n := float64(lvl.Lap.NNZ()), float64(lvl.Lap.N)
			equiv += a * nnz / nnz0
			applyBytes += a * (12*nnz + 12*8*n) // CSR sweep + the iteration's vector kernels
		}
		applyBytes += a * 2 * float64(lvl.Elim.MemoryBytes())
	}
	applyBytes += a * float64(s.Chain.Bottom.MemoryBytes())
	res.put("solver.apply_spmv_equiv", "ratio", equiv).Note = "scheduled SpMVs per apply, in top-level SpMVs"
	return applyBytes
}

// traceSpans lays a solve's returned SolveTrace out as children of its
// span: workspace, then the outer driver, whose child is the time inside
// the preconditioner, whose children are the per-level stages.
func (r *run) traceSpans(solve int, tr *obs.SolveTrace) {
	if r.spans == nil {
		return
	}
	top := r.spans.layOut(solve, []string{"solver.workspace", "solver.outer_pcg"}, []int64{tr.WorkspaceNS, tr.OuterNS})
	pre := r.spans.layOut(top[1], []string{"solver.precond"}, []int64{tr.PrecondNS})
	var names []string
	var durs []int64
	for i := 0; i < tr.Levels && i < obs.TraceLevels; i++ {
		names = append(names, fmt.Sprintf("solver.fwd.l%d", i), fmt.Sprintf("solver.cheb.l%d", i), fmt.Sprintf("solver.back.l%d", i))
		durs = append(durs, tr.FwdNS[i], tr.ChebNS[i], tr.BackNS[i])
	}
	names, durs = append(names, "solver.bottom"), append(durs, tr.BottomNS)
	r.spans.layOut(pre[0], names, durs)
}

// solveProbes is the solve phase of the traced pass. Right-hand side 0 is
// solved once on its own for the exact counts; then right-hand sides 1, 2,
// … are each solved twice, untraced and traced, so the difference between
// the two medians is the tracing overhead. It returns the answer to b0,
// the stand-alone apply time and the median untraced wall per right-hand
// side.
func (r *run) solveProbes(s *solver.Solver, b0 []float64, budgetS float64, root int) (x0 []float64, apply, untracedS float64) {
	res, w := r.res, r.w
	n, k := s.G.N, w.lanes

	var tr0 obs.SolveTrace
	a0, bs0 := s.Chain.PrecondApplies(), s.Chain.BottomSolves()
	sp := r.spans.begin("solver.solve", root, "solve-0")
	t0 := time.Now()
	x0, st0 := s.SolveTraced(b0, eps, s.Opt, &tr0)
	own := time.Since(t0).Seconds()
	r.spans.end(sp)
	r.traceSpans(sp, &tr0)
	r.checkSolve(s, x0, b0, st0, "traced solve")
	applies0 := int(s.Chain.PrecondApplies() - a0)
	res.count("solver.outer_iterations", st0.Iterations)
	res.count("solver.precond_applies", applies0)
	res.count("solver.bottom_solves", int(s.Chain.BottomSolves()-bs0))

	// One application timed from outside, right after the solve whose
	// applications it is checked against, so both see the same machine.
	dst := make([]float64, n)
	apply = r.timed("solver.apply", root, 50, func() { s.Chain.PrecondApplyIntoW(w.workers, b0, dst) })
	res.put("solver.apply_s", "s", apply)
	res.put("solver.apply_model_ratio", "ratio", float64(applies0)*apply*1e9/float64(tr0.PrecondNS)).Note =
		"precond_applies x apply_s / preconditioner time of the solve of right-hand side 0"

	other := solver.Options{Workers: 1}
	if w.workers == 1 {
		other.Workers = 0
	}
	sp = r.spans.begin("solver.solve_other_workers", root, "solve-0")
	t0 = time.Now()
	s.SolveOpts(b0, eps, other)
	swapped := time.Since(t0).Seconds()
	r.spans.end(sp)
	seq, parl := own, swapped
	if w.workers != 1 {
		seq, parl = swapped, own
	}
	res.put("solver.par_speedup", "ratio", seq/parl).Note = "Workers:1 wall / Workers:0 wall, same chain, right-hand side 0"

	var un, tw []float64
	var traces []obs.SolveTrace
	var first [2][][]float64 // lanes and answers of the first block call
	var firstWall float64
	l := lanes{s: s, k: k}
	ops, cpu0, start := 0, cpuSeconds(), time.Now()
	for ; ops < 2 || time.Since(start).Seconds() < budgetS; ops++ {
		l.load(r.seed, 1+ops*k)
		// Alternate which of the pair runs first, so that whatever the
		// first solve leaves warm does not always favour the same side.
		for _, traced := range []bool{ops%2 == 1, ops%2 == 0} {
			if !traced {
				d := l.solve(nil)
				un = append(un, d/float64(k))
				if xs, _ := l.answers(r); ops == 0 {
					first, firstWall = [2][][]float64{l.bs, xs}, d
				}
				continue
			}
			var tr obs.SolveTrace
			sp := r.spans.begin("solver.solve", root, fmt.Sprintf("solve-%d", 1+ops))
			d := l.solve(&tr)
			r.spans.end(sp)
			r.traceSpans(sp, &tr)
			l.answers(r)
			tw, traces = append(tw, d/float64(k)), append(traces, tr)
		}
	}
	rhsDone := 2 * k * ops
	res.TimedWallS = time.Since(start).Seconds()
	res.Samples["untraced_solves"], res.Samples["traced_solves"] = len(un), len(tw)
	res.put("bench.cpu_s_per_rhs", "s", (cpuSeconds()-cpu0)/float64(rhsDone)).Note = "process user+sys over the solve phase"
	untracedS = median(un)
	res.put("obs.trace_overhead_share", "ratio", (median(tw)-untracedS)/untracedS).Note =
		fmt.Sprintf("traced %.6g s vs untraced %.6g s per right-hand side", median(tw), untracedS)

	// Allocations of one more untraced call, on its own: reading the
	// allocator's counters stops the world, which must not sit right in
	// front of a timed solve.
	var m0, m1 runtime.MemStats
	l.load(r.seed, 1+ops*k)
	runtime.ReadMemStats(&m0)
	l.solve(nil)
	runtime.ReadMemStats(&m1)
	l.answers(r)
	res.put("solver.allocs_per_rhs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(k)).Note = "one untraced call"
	res.put("solver.alloc_mb_per_rhs", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(k)/1e6)

	// Stage times per right-hand side: a block's trace covers all its lanes.
	stage := func(f func(*obs.SolveTrace) int64) float64 {
		vs := make([]float64, len(traces))
		for i := range traces {
			vs[i] = float64(f(&traces[i])) / 1e9 / float64(k)
		}
		return median(vs)
	}
	share := func(st obs.Stage) float64 {
		vs := make([]float64, len(traces))
		for i := range traces {
			vs[i] = float64(traces[i].StageNS(st)) / float64(traces[i].PrecondNS)
		}
		return median(vs)
	}
	res.put("solver.precond_s", "s", stage(func(t *obs.SolveTrace) int64 { return t.PrecondNS }))
	res.put("solver.pcg_self_s", "s", stage(func(t *obs.SolveTrace) int64 { return t.StageNS(obs.StagePCG) }))
	res.put("solver.workspace_s", "s", stage(func(t *obs.SolveTrace) int64 { return t.WorkspaceNS }))
	res.put("solver.bottom_s", "s", stage(func(t *obs.SolveTrace) int64 { return t.BottomNS }))
	res.put("solver.cheb_share", "ratio", share(obs.StageCheb)).Note = "of precond_s"
	res.put("solver.fwd_share", "ratio", share(obs.StageForward)).Note = "of precond_s"
	res.put("solver.back_share", "ratio", share(obs.StageBack)).Note = "of precond_s"
	res.put("solver.bottom_share", "ratio", share(obs.StageBottom)).Note = "of precond_s"
	for i := 0; i < len(s.Chain.Levels) && i < obs.TraceLevels; i++ {
		i := i
		if i > 0 { // the top level's own Chebyshev sweep never runs: the outer PCG stands in for it
			res.put(fmt.Sprintf("solver.cheb_s.l%d", i), "s", stage(func(t *obs.SolveTrace) int64 { return t.ChebNS[i] }))
		}
		res.put(fmt.Sprintf("solver.fwd_s.l%d", i), "s", stage(func(t *obs.SolveTrace) int64 { return t.FwdNS[i] }))
		res.put(fmt.Sprintf("solver.back_s.l%d", i), "s", stage(func(t *obs.SolveTrace) int64 { return t.BackNS[i] }))
	}

	// Block lanes against the single solves of the same right-hand sides:
	// bitwise equality is the output check, the wall ratio is what the
	// block engine buys.
	if k > 1 {
		var singles float64
		for c := 0; c < k; c++ {
			sp := r.spans.begin("solver.solve_single_lane", root, fmt.Sprintf("lane-%d", c))
			t0 := time.Now()
			x, _ := s.Solve(first[0][c], eps)
			singles += time.Since(t0).Seconds()
			r.spans.end(sp)
			r.op(bitsEqual(x, first[1][c]), "block lane %d differs bitwise from the single solve", c)
		}
		res.put("solver.block_speedup", "ratio", singles/firstWall).Note =
			fmt.Sprintf("%d single solves / one %d-lane block call, same right-hand sides", k, k)
	}
	return x0, apply, untracedS
}

// kernelProbes times the kernels under the apply from outside.
func (r *run) kernelProbes(g *graph.Graph, s *solver.Solver, b0 []float64, apply, applyBytes float64, root int) {
	res, wk := r.res, r.w.workers
	n := g.N
	dst := make([]float64, n)
	res.put("solver.apply_gbs_computed", "GB/s", applyBytes/apply/1e9).Note = "computed bytes / apply_s, not measured traffic"

	x, y := append([]float64(nil), b0...), make([]float64, n)
	lap := s.Lap
	cgIter := r.timed("matrix.cg_iteration_kernels", root, 200, func() {
		lap.MulVecW(wk, x, y)
		matrix.DotW(wk, x, y)
		matrix.DotW(wk, y, y)
		matrix.AxpyIntoW(wk, dst, 0.5, x, dst)
		matrix.AxpyIntoW(wk, dst, -0.5, y, dst)
		matrix.AxpyIntoW(wk, dst, 0.25, x, dst)
	})
	res.put("solver.apply_cg_equiv", "ratio", apply/cgIter).Note = "apply_s / (SpMV + 2 dots + 3 axpys on the top level)"

	spmv := r.timed("matrix.spmv", root, 200, func() { lap.MulVecW(1, x, y) })
	res.put("matrix.spmv_s", "s", spmv)
	spmvBytes := float64(lap.MemoryBytes()) + 16*float64(n)
	largest := float64(len(lap.Val)) * 8
	res.put("matrix.spmv_gbs_computed", "GB/s", spmvBytes/spmv/1e9).Note = fmt.Sprintf(
		"computed bytes / spmv_s; largest array %.2f MB, LLC %.1f MB: in cache, so no roofline ratio", largest/1e6, float64(res.Provenance.LLCBytes)/1e6)
	xb, yb := matrix.NewBlock(n, 8), matrix.NewBlock(n, 8)
	for c := 0; c < 8; c++ {
		xb.SetCol(c, x)
	}
	res.put("matrix.spmv_block8_s", "s", r.timed("matrix.spmv_block8", root, 50, func() { lap.MulVecBlockW(1, xb, yb) })/8).Note = "per lane"
	res.put("matrix.laplacian_s", "s", r.timed("matrix.laplacian", root, 5, func() { matrix.LaplacianOfW(wk, g) }))
	bot := s.Chain.Bottom
	bb, bx, bg := make([]float64, bot.N()), make([]float64, bot.N()), make([]float64, bot.GroundedLen())
	for i := range bb {
		bb[i] = float64(i%7) - 3
	}
	res.put("matrix.bottom_solve_s", "s", r.timed("matrix.bottom_solve", root, 200, func() { bot.SolveIntoW(wk, bb, bx, bg) }))

	// The smallest size par parallelises (below SequentialThreshold the
	// primitives run inline and there is no dispatch to measure).
	const dispatchN = 2 * par.SequentialThreshold
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reps := r.reps(2000)
	res.put("par.dispatch_s", "s", r.timed("par.dispatch", root, 2000, func() { par.ForChunkedW(0, dispatchN, func(lo, hi int) {}) }))
	runtime.ReadMemStats(&m1)
	res.put("par.dispatch_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(reps))
	n1 := s.Chain.BottomG.N
	if len(s.Chain.Levels) > 1 {
		n1 = s.Chain.Levels[1].G.N
	}
	v := make([]float64, n1+1)
	res.put("par.sum_s", "s", r.timed("par.sum", root, 2000, func() { par.SumFloat64W(0, len(v), func(i int) float64 { return v[i] }) })).Note =
		fmt.Sprintf("n = %d", len(v))
}

// setupLayerProbes times the low-stretch and decomposition layers on the
// top graph with the parameters the chain build passes them.
func (r *run) setupLayerProbes(s *solver.Solver, root int) {
	res, wk := r.res, r.w.workers
	top := s.G
	if len(s.Chain.Levels) > 0 {
		top = s.Chain.Levels[0].G
	}
	// Length view, as IncrementalSparsify builds it: length = 1/conductance.
	lengths := make([]graph.Edge, len(top.Edges))
	for i, e := range top.Edges {
		lengths[i] = graph.Edge{U: e.U, V: e.V, W: 1 / e.W}
	}
	lg := graph.FromEdgesW(wk, top.N, lengths)
	sp := solver.DefaultSparsifyParams()
	lsp := lowstretch.ParamsForBeta(top.N, sp.Beta, sp.Lambda, sp.PaperConstants)
	lsp.Workers, lsp.Decomp.Workers = wk, wk
	var extra int
	res.put("lowstretch.subgraph_s", "s", r.timed("lowstretch.subgraph", root, 3, func() {
		_, st := lowstretch.LSSubgraph(lg, lsp, rand.New(rand.NewSource(1)), nil)
		extra = st.ExtraEdges
	}))
	res.count("lowstretch.extra_edges", extra)
	ap := lowstretch.PracticalParams()
	ap.Workers, ap.Decomp.Workers = wk, wk
	var tree []int
	res.put("lowstretch.akpw_s", "s", r.timed("lowstretch.akpw", root, 3, func() {
		tree, _ = lowstretch.AKPW(lg, ap, rand.New(rand.NewSource(1)), nil)
	}))
	_, stretch := lowstretch.TreeStretchW(wk, lg, tree)
	res.put("lowstretch.avg_stretch", "ratio", stretch.Average)

	const rho = 32
	dp := decomp.PracticalParams()
	dp.Workers = wk
	var dec *decomp.Result
	res.put("decomp.split_s", "s", r.timed("decomp.split", root, 3, func() {
		dec = decomp.SplitGraph(top, rho, dp, rand.New(rand.NewSource(1)), nil)
	}))
	cut := decomp.CountCutW(wk, top, dec.Comp, nil, 1)
	res.put("decomp.cut_share", "ratio", float64(cut.Total)/float64(top.M()))
	maxR := 0
	for _, rad := range decomp.StrongRadius(top, dec) {
		if rad > maxR {
			maxR = rad
		}
	}
	res.count("decomp.max_radius", maxR)
	res.count("decomp.components", dec.NumComp)
}

// chainioProbes times snapshot encode/decode and a directory store.
func (r *run) chainioProbes(g *graph.Graph, s *solver.Solver, root int) error {
	res := r.res
	id := graph.CanonicalID(g)
	blob, err := chainio.Encode(s, id)
	if err != nil {
		return fmt.Errorf("encoding the snapshot: %w", err)
	}
	res.put("chainio.encode_s", "s", r.timed("chainio.encode", root, 5, func() {
		if _, err := chainio.Encode(s, id); err != nil {
			panic(err) // succeeded once above
		}
	}))
	var decErr error
	res.put("chainio.decode_s", "s", r.timed("chainio.decode", root, 5, func() {
		if _, err := chainio.Decode(blob, id, s.Opt); err != nil {
			decErr = err
		}
	}))
	if decErr != nil {
		return fmt.Errorf("decoding the snapshot: %w", decErr)
	}
	res.put("chainio.snapshot_mb", "MB", float64(len(blob))/1e6)
	store, err := chainio.NewDirStore(filepath.Join(r.tmpDir, "probe-store"))
	if err != nil {
		return err
	}
	var ioErr error
	res.put("chainio.store_put_s", "s", r.timed("chainio.store_put", root, 5, func() {
		if err := store.Put(id, blob); err != nil {
			ioErr = err
		}
	}))
	res.put("chainio.store_get_s", "s", r.timed("chainio.store_get", root, 5, func() {
		if _, err := store.Get(id); err != nil {
			ioErr = err
		}
	}))
	return ioErr
}
