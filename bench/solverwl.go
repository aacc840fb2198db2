package main

import (
	"fmt"
	"math"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/obs"
	"parlap/internal/solver"
	"parlap/internal/wd"
)

const (
	freshBuilds = 5  // fresh solver constructions per run (setup_s is their median)
	firstSolves = 3  // of those, how many also time a first solve (first_answer_s)
	restoreReps = 11 // chainio.Decode repetitions (restore_s is their median)
	minTimedOps = 3  // the timed phase never ends with fewer samples than this
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSolve is the output check of one answered right-hand side: the
// solver said it converged and the true residual, recomputed from x and b,
// is within 2·eps.
func (r *run) checkSolve(s *solver.Solver, x, b []float64, st solver.SolveStats, what string) bool {
	res := s.Residual(x, b)
	ok := st.Converged && res <= 2*eps
	r.op(ok, "%s: converged=%v residual=%.3g after %d iterations", what, st.Converged, res, st.Iterations)
	return ok
}

// lanes drives a solver the way a workload does: one right-hand side per
// call through SolveTraced, or k of them through SolveBlockTraced. Both
// passes solve through it, so they time the same calls.
type lanes struct {
	s       *solver.Solver
	k       int
	bs      [][]float64 // the right-hand sides loaded last
	rb, out matrix.Block
	sts     []solver.SolveStats
	x1      []float64 // the answer when k == 1
}

// load makes right-hand sides first..first+k-1 of the run the next call's input.
func (l *lanes) load(seed int64, first int) {
	n := l.s.G.N
	l.bs = make([][]float64, l.k)
	for c := range l.bs {
		l.bs[c] = rhs(n, seed, first+c)
	}
	if l.k > 1 {
		l.rb.Reshape(n, l.k)
		for c, b := range l.bs {
			l.rb.SetCol(c, b)
		}
	}
}

// solve makes the call and returns its wall. A nil trace is the untraced
// call: exactly what Solve and SolveBlockTraced(…, nil) do.
func (l *lanes) solve(tr *obs.SolveTrace) float64 {
	t0 := time.Now()
	if l.k == 1 {
		var st solver.SolveStats
		l.x1, st = l.s.SolveTraced(l.bs[0], eps, l.s.Opt, tr)
		l.sts = append(l.sts[:0], st)
	} else {
		l.sts = l.s.SolveBlockTraced(&l.rb, &l.out, eps, l.s.Opt, tr, l.sts)
	}
	return time.Since(t0).Seconds()
}

// answers checks every lane of the last call, returns the answers and how
// many passed.
func (l *lanes) answers(r *run) (xs [][]float64, ok int) {
	xs = [][]float64{l.x1}
	if l.k > 1 {
		xs = make([][]float64, l.k)
		for c := range xs {
			xs[c] = make([]float64, l.s.G.N)
			l.out.ColInto(c, xs[c])
		}
	}
	for c := range xs {
		if r.checkSolve(l.s, xs[c], l.bs[c], l.sts[c], "solve") {
			ok++
		}
	}
	return xs, ok
}

// timedSolves is the timed phase of a library-caller workload: seeded
// right-hand sides 1, 2, … solved one call after another until the
// deadline. A k-lane block call contributes one latency sample, wall ÷ k.
// It also returns the first call's right-hand sides and answers, for the
// lane-versus-single check.
func (r *run) timedSolves(s *solver.Solver, budgetS float64) (lat []float64, wall float64, okRHS int, first [2][][]float64) {
	l := lanes{s: s, k: r.w.lanes}
	start := time.Now()
	for op := 0; op < minTimedOps || time.Since(start).Seconds() < budgetS; op++ {
		l.load(r.seed, 1+op*l.k)
		lat = append(lat, l.solve(nil)/float64(l.k))
		xs, ok := l.answers(r)
		okRHS += ok
		if op == 0 {
			first = [2][][]float64{l.bs, xs}
		}
	}
	return lat, time.Since(start).Seconds(), okRHS, first
}

// putSolveSamples reports the per-right-hand-side latency distribution.
func (r *run) putSolveSamples(lat []float64) {
	res := r.res
	res.Samples["solves"] = len(lat)
	res.put("solve_s", "s", median(lat))
	tail, beyond := percentile(lat, r.w.tailPct)
	res.put("solve_tail_s", "s", tail).Note = fmt.Sprintf("p%g of %d samples, %d beyond it", r.w.tailPct, len(lat), beyond)
	q1, _, q3 := quartiles(lat)
	max, _ := percentile(lat, 100)
	res.put("solve_q1_s", "s", q1).Note = "not gated"
	res.put("solve_q3_s", "s", q3).Note = "not gated"
	res.put("solve_max_s", "s", max).Note = "not gated"
}

// baselines times solver.CG and solver.JacobiPCG exactly as exported, on
// the solver's own Laplacian, right-hand side 0 and eps. Both must
// converge; the returned medians feed baseline_ratio.
func (r *run) baselines(s *solver.Solver, b []float64, parent int) (cg, jac float64, cgIts, jacIts int) {
	type fn func(*matrix.Sparse, []float64, []int, int, float64, int, *wd.Recorder) ([]float64, solver.SolveStats)
	one := func(name string, reps int, f fn) (float64, int) {
		var ts []float64
		its := 0
		for i := 0; i < reps; i++ {
			sp := r.spans.begin("solver."+name, parent, fmt.Sprintf("%s-%d", name, i))
			t0 := time.Now()
			x, st := f(s.Lap, b, s.Comp, s.NumComp, eps, 20*s.G.N, nil)
			ts = append(ts, time.Since(t0).Seconds())
			r.spans.end(sp)
			its = st.Iterations
			r.checkSolve(s, x, b, st, name+" baseline")
		}
		return median(ts), its
	}
	cg, cgIts = one("cg", r.w.cgReps, solver.CG)
	jac, jacIts = one("jacobi", r.w.jacobiReps, solver.JacobiPCG)
	return
}

// solverE2E is the end-to-end pass of a library-caller workload: what
// someone who builds a solver once and solves many right-hand sides waits
// for, with tracing off — no spans, no SolveTrace.
func (r *run) solverE2E() error {
	w, res := r.w, r.res
	g := w.graph(r.smoke)
	opt := solver.Options{Workers: w.workers}
	b0 := rhs(g.N, r.seed, 0)

	var setup, first []float64
	var s *solver.Solver
	var x0 []float64
	for i := 0; i < freshBuilds; i++ {
		t0 := time.Now()
		sv, err := solver.NewWithOptions(g, solver.DefaultChainParams(), opt, nil)
		setup = append(setup, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("building the solver: %w", err)
		}
		if i >= firstSolves {
			continue
		}
		x, st := sv.Solve(b0, eps)
		first = append(first, time.Since(t0).Seconds())
		r.checkSolve(sv, x, b0, st, "first solve")
		if i == 0 {
			s, x0 = sv, x
		}
	}
	res.Samples["builds"], res.Samples["first_solves"] = len(setup), len(first)
	res.put("setup_s", "s", median(setup))
	res.put("first_answer_s", "s", median(first))

	lat, wall, okRHS, kept := r.timedSolves(s, r.seconds)
	res.TimedWallS = wall
	r.putSolveSamples(lat)
	res.put("rhs_per_s", "1/s", float64(okRHS)/wall)

	// Block lanes must equal the single solves of the same right-hand
	// sides bit for bit; the first and last lane of the first call stand
	// for the rest (each single solve costs as much as a whole lane).
	if w.lanes > 1 {
		for _, c := range []int{0, w.lanes - 1} {
			x, _ := s.Solve(kept[0][c], eps)
			r.op(bitsEqual(x, kept[1][c]), "block lane %d differs bitwise from the single solve", c)
		}
	}

	cg, jac, _, _ := r.baselines(s, b0, 0)
	res.Samples["cg"], res.Samples["jacobi"] = w.cgReps, w.jacobiReps
	res.put("baseline_ratio", "ratio", median(lat)/math.Min(cg, jac)).Note =
		fmt.Sprintf("solve_s / min(CG %.4g s, Jacobi-PCG %.4g s)", cg, jac)

	restore, err := r.restoreCheck(s, g, b0, x0)
	if err != nil {
		return err
	}
	res.put("restore_s", "s", restore)
	res.put("chain_mb", "MB", float64(s.MemoryBytes())/1e6)
	return nil
}

// restoreCheck snapshots s, decodes the snapshot restoreReps times and
// checks that the restored solver answers b0 bit for bit as s did.
func (r *run) restoreCheck(s *solver.Solver, g *graph.Graph, b0, x0 []float64) (float64, error) {
	id := graph.CanonicalID(g)
	blob, err := chainio.Encode(s, id)
	if err != nil {
		return 0, fmt.Errorf("encoding the snapshot: %w", err)
	}
	var ts []float64
	var restored *solver.Solver
	for i := 0; i < restoreReps; i++ {
		t0 := time.Now()
		restored, err = chainio.Decode(blob, id, s.Opt)
		ts = append(ts, time.Since(t0).Seconds())
		if err != nil {
			return 0, fmt.Errorf("decoding the snapshot: %w", err)
		}
	}
	r.res.Samples["restores"] = len(ts)
	x, _ := restored.Solve(b0, eps)
	r.op(bitsEqual(x, x0), "restored solver's answer differs bitwise from the built one's")
	return median(ts), nil
}
