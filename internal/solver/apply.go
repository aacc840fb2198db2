package solver

import (
	"math"
	"time"

	"parlap/internal/matrix"
	"parlap/internal/obs"
)

// The chain's apply recursion (rPCh, Lemmas 6.6–6.7) and the block PCG
// driver above it, which the CG and Jacobi-PCG baselines run too (at k = 1,
// with their own preconditioner). Every chain solve runs here at its batch
// width k — a single right-hand side is a k = 1 block — and every stage (the
// elimination-log replays, the per-level Chebyshev sweeps, the CSR
// mat-vecs, the bottom direct solve) operates on one contiguous n×k
// matrix.Block, amortizing every traversal of the chain's (large, shared)
// static structure across the batch and streaming the k lane values per
// vertex from adjacent memory (the vertex-major interleaved layout). Lane
// arithmetic is never mixed: each block kernel performs, per lane, exactly
// the floating-point operations of its single-vector form in the same
// order (at k = 1 most of them ARE the single-vector kernel), so lane c of
// a k-wide solve is bitwise identical to a solve of that column alone. The
// outer driver's own vector work runs in three fused kernels that each
// replace a kernel sequence and keep its bits (matrix.MulVecDotBlockW,
// AxpyPairNormBlockW, DotsBlockW), so a sequential outer iteration sweeps
// its n×k vectors four times — the mat-vec, the step, the dots against z,
// and the direction update — where the unfused kernel sequence took ten (a
// k = 1 solve at Workers ≥ 2 still runs that sequence, in parallel
// kernels). Lanes that converge (or break down) are compacted out of the
// block — pure data movement via Block.KeepLanes — exactly where a lone
// solve of the column would have stopped. A block runs at width 1, 2 or 4
// (blockWidth): three live lanes carry a fourth, zero pad lane, which
// every kernel keeps exactly zero and the driver never treats as a lane.
//
// One projection per preconditioner application: every block the
// recursion returns is already in range(A) per component, because
// applyHBlock projects its back-substituted block and the bottom factor's
// solve ends in its own projection. So the Chebyshev sweep and the outer
// driver never project a preconditioned block again; the driver projects
// only its right-hand side on entry and each lane it finishes.
//
// Scratch lives in the per-solve workspace (each buffer a Block reshaped to
// the batch width), so steady-state applications reuse backing arrays
// across iterations and stream windows and the Workers:1 apply path
// performs zero heap allocations.

// solveLevelBlock approximately solves A_i x = b for the k lanes of bs by
// level i's preconditioned Chebyshev sweep; past the last level it solves
// exactly with the bottom factor (the Lemma 6.7 / 6.8 recursion). One sweep
// or one bottom solve serves the whole batch. The result is a
// workspace-resident block, valid until the level's scratch is next used.
func (c *Chain) solveLevelBlock(workers, i int, bs *matrix.Block, ws *workspace) *matrix.Block {
	if i >= len(c.Levels) {
		c.bottomSolves.Add(int64(ws.lanes))
		t0 := time.Now()
		c.Bottom.SolveBlockIntoW(workers, bs, &ws.bot.x, &ws.bot.g)
		ws.trace.BottomNS += time.Since(t0).Nanoseconds()
		return &ws.bot.x
	}
	return c.chebLevelBlock(workers, i, bs, ws)
}

// applyHBlock solves the preconditioner system H_i z = r for the k lanes of
// r by partial-Cholesky elimination into A_{i+1}, a recursive solve there,
// and back-substitution: one forward/backward replay of the elimination log
// per batch instead of per RHS. The κ scaling of the subgraph inside H is
// part of H's definition, so no extra scaling appears here. The returned
// block is ws's level-i back-substitution buffer, projected per component
// of level i: the one projection each of its callers relies on.
func (c *Chain) applyHBlock(workers, i int, r *matrix.Block, ws *workspace) *matrix.Block {
	lvl := &c.Levels[i]
	l := &ws.lvl[i]
	li := obs.LevelIndex(i)
	t0 := time.Now()
	lvl.Elim.ForwardRHSBlockIntoW(workers, r, &l.fwdWork, &l.fwdCarry, &l.fwdRed)
	ws.trace.FwdNS[li] += time.Since(t0).Nanoseconds()
	xr := c.solveLevelBlock(workers, i+1, &l.fwdRed, ws)
	t1 := time.Now()
	lvl.Elim.BackSolveBlockIntoW(workers, xr, &l.fwdCarry, &l.backX)
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, &l.backX, lvl.CompIdx)
	ws.trace.BackNS[li] += time.Since(t1).Nanoseconds()
	return &l.backX
}

// applyHTopBlock applies the whole-chain preconditioner to the k lanes of rs
// (the first lanes of them live, any other a zero pad) into ws and returns
// the workspace-resident block, projected per component by applyHBlock(0)
// or, with no level, by the bottom factor's solve. It reshapes the chain
// scratch to rs's width when the batch narrowed (lane dropout in the outer
// driver), which on a warm workspace is slice-header work only.
func (c *Chain) applyHTopBlock(workers int, rs *matrix.Block, lanes int, ws *workspace) *matrix.Block {
	if k := rs.K(); ws.cols != k {
		ws.grow(k)
	}
	ws.lanes = lanes
	c.precondApplies.Add(1)
	t0 := time.Now()
	var zs *matrix.Block
	if len(c.Levels) == 0 {
		zs = c.solveLevelBlock(workers, 0, rs, ws)
	} else {
		zs = c.applyHBlock(workers, 0, rs, ws)
	}
	ws.trace.PrecondNS += time.Since(t0).Nanoseconds()
	return zs
}

// chebLevelBlock runs level i's fixed-degree preconditioned Chebyshev
// iteration on k lanes at once: spec(M⁻¹A) ⊆ [EigLo, EigHi], exactly
// ChebIts iterations, preconditioned by applyHBlock(i). The recurrence
// scalars depend only on the spectral interval and the iteration index —
// never on the data — so one scalar schedule drives all lanes and each lane
// reproduces the single-column iteration bitwise. The direction/iterate
// updates and the mat-vec/residual updates are fused (ChebUpdateBlockW,
// MulVecAxpyBlockW), sweeping the n×k working set twice per iteration
// instead of four times. The sweep projects nothing: each z it takes from
// applyHBlock is in range(A_i), and its caller (the level above's
// back-substitution) projects the result. Keeping the recursion
// closure-free and the scratch level-resident is what makes a steady-state
// application allocation-free.
func (c *Chain) chebLevelBlock(workers, i int, bs *matrix.Block, ws *workspace) *matrix.Block {
	l := &ws.lvl[i]
	lvl := &c.Levels[i]
	a := lvl.Lap
	x, r, p, ap := &l.chebX, &l.chebR, &l.chebP, &l.chebAp
	// Stage timing: the sweep's own kernel time, EXCLUSIVE of the recursive
	// preconditioner applications (those land in deeper levels' trace
	// slots), so the per-level stage series partition the apply time.
	t0 := time.Now()
	var innerNS int64
	x.Zero()
	r.CopyFrom(bs)
	co := newChebCoeffs(lvl.EigLo, lvl.EigHi)
	for it := 0; it < lvl.ChebIts; it++ {
		ta := time.Now()
		z := c.applyHBlock(workers, i, r, ws)
		innerNS += time.Since(ta).Nanoseconds()
		alpha, beta, first := co.step(it)
		matrix.ChebUpdateBlockW(workers, p, z, beta, x, alpha, first)
		a.MulVecAxpyBlockW(workers, p, ap, -alpha, r)
	}
	ws.trace.ChebNS[obs.LevelIndex(i)] += time.Since(t0).Nanoseconds() - innerNS
	return x
}

// finishBlockLane retires one lane of the outer driver's iterate block: its
// column is gathered into the plain scratch vector col, given the
// single-vector final projection, and scattered into the caller-owned
// output column. Using the single-vector projection kernel on a contiguous
// copy keeps the finished value bitwise identical to a width-1 solve's.
func finishBlockLane(workers int, x *matrix.Block, lane int, ci *matrix.CompIndex, col []float64, out *matrix.Block, outCol int) {
	k := x.K()
	xd := x.Data()
	for v := range col {
		col[v] = xd[v*k+lane]
	}
	matrix.ProjectOutConstantMaskedIdxW(workers, col, ci)
	out.SetCol(outCol, col)
}

// preconditioner is what the outer PCG driver applies once per iteration:
// the chain's whole-chain H (Chain) or a baseline's diagonal (diagPrecond).
type preconditioner interface {
	// applyHTopBlock applies the preconditioner to rs, whose first lanes
	// lanes are live and any further lane a zero pad, and returns the
	// result in a block the preconditioner owns; the driver may overwrite
	// it until the next call. Every lane of the result is projected per
	// component of the driver's operator, so the driver never projects it.
	applyHTopBlock(workers int, rs *matrix.Block, lanes int, ws *workspace) *matrix.Block
	// laneCost is the analytic (work, depth) one application charges each
	// lane it serves.
	laneCost() (work, depth int64)
}

// laneCost charges Chain.applyCost per top-level application.
func (c *Chain) laneCost() (work, depth int64) { return c.applyWork, c.applyDepth }

// blockWidth is the width a block of the given live lanes (at most
// maxGroupLanes) runs at: three lanes carry a zero fourth, so the block
// kernels see widths 1, 2 and 4 only. The pad is exact: every kernel is
// linear in each lane and divides by no lane value, so a zero lane stays
// zero, and the driver's per-lane loops stop at the live lanes.
func blockWidth(lanes int) int {
	if lanes == 3 {
		return 4
	}
	return lanes
}

// pcgFlexibleBlock is the one outer iteration: a flexible (Polak–Ribière)
// preconditioned conjugate gradient, which tolerates the mildly nonlinear
// preconditioner a recursive Chebyshev chain is in floating point. It runs
// on lanes lo … hi−1 of rhs (at most maxGroupLanes), sharing one
// preconditioner application per iteration across all still-active lanes,
// and stops a lane when its relative residual drops below tol, when its
// preconditioner breaks positive-definiteness, or after maxIter
// iterations. Every lane follows the operation sequence of a width-1 solve
// — same kernels, same order, same break points — so out's column c is
// bitwise identical to a width-1 solve of rhs's column c. Lanes leave the
// active block via KeepLanes compaction (pure data movement — surviving
// lanes' arithmetic is untouched) and are finished (projected and written
// to out) at that moment. The blocks run at blockWidth(lanes); the scalar
// slots a kernel reads at a pad lane (alphas, betas) are 0.
//
// A sequential iteration makes four sweeps over its n×k blocks besides the
// preconditioner: AP = A·P with P·AP (MulVecDotBlockW); X += αP and
// R −= α·AP with ‖R‖ (AxpyPairNormBlockW); z·(r − r_prev) and r·z while
// r_prev ← r (DotsBlockW); and P = βP + Z (AxpyBlockW). Each reduction
// folds the same ReduceGrain chunks in the same order as the separate
// kernels did. Z needs no projection: pc returns it projected (see
// preconditioner). The driver projects R once on entry and X once per
// lane as the lane finishes.
//
// out must be shaped like rhs and zeroed by the caller; only columns lo …
// hi−1 are written, as are only stats[lo:hi], which must be zeroed. So
// disjoint lane ranges may run concurrently on one rhs/out/stats, each on
// its own workspace. All driver scratch comes from ws (ensureOuter), so the
// Workers:1 steady state allocates nothing.
//
// Each lane's Work/Depth is the analytic cost of a width-1 solve of its
// column: (nnz + 10n, 2) per iteration that passes the pap check, plus
// pc.laneCost per preconditioner application the lane takes part in.
func pcgFlexibleBlock(workers int, a *matrix.Sparse, pc preconditioner, rhs *matrix.Block, lo, hi int,
	ci *matrix.CompIndex, tol float64, maxIter int, ws *workspace,
	out *matrix.Block, stats []SolveStats) {
	n := a.N
	k0 := hi - lo
	w0 := blockWidth(k0)
	ws.ensureOuter(n, w0)
	applyWork, applyDepth := pc.laneCost()
	// Per-lane scalar scratch: 9 w0-sized lanes packed into pcgScal.
	scal := ws.pcgScal
	bnorms := scal[0:w0]
	rzs := scal[w0 : 2*w0]
	alphas := scal[2*w0 : 3*w0]
	paps := scal[3*w0 : 4*w0]
	norms := scal[4*w0 : 5*w0]
	betas := scal[5*w0 : 6*w0]
	zdiffs := scal[6*w0 : 7*w0]
	newRzs := scal[7*w0 : 8*w0]
	rrs := scal[8*w0 : 9*w0]
	laneCol := ws.pcgLane[0:w0] // original output column of each live lane
	keep := ws.pcgLane[w0 : 2*w0]
	col := ws.pcgCol[:n]

	R := &ws.pcgR
	R.Reshape(n, w0)
	R.CopyLanesFrom(rhs, lo, k0)
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, R, ci)
	matrix.Norm2BlockIntoW(workers, R, bnorms)
	// Zero right-hand sides converge immediately with x = 0, unprojected;
	// everything else becomes a lane.
	lanes := 0
	for j := 0; j < k0; j++ {
		if bnorms[j] == 0 {
			stats[lo+j].Converged = true
			continue
		}
		keep[lanes] = j
		laneCol[lanes] = lo + j
		bnorms[lanes] = bnorms[j] // in-place compaction: lanes <= j always
		lanes++
	}
	if lanes == 0 {
		return
	}
	if lanes < k0 {
		R.KeepLanes(blockWidth(lanes), keep[:lanes])
	}
	width := R.K()

	X := &ws.pcgX
	X.Reshape(n, width)
	X.Zero()
	Z := pc.applyHTopBlock(workers, R, lanes, ws)
	charge(stats, laneCol[:lanes], applyWork, applyDepth)
	matrix.DotBlockIntoW(workers, R, Z, rzs)
	P := &ws.pcgP
	P.Reshape(n, width)
	P.CopyFrom(Z)
	PrevR := &ws.pcgPrev
	PrevR.Reshape(n, width)
	PrevR.CopyFrom(R)
	AP := &ws.pcgAp

	for it := 0; it < maxIter && lanes > 0; it++ {
		for j := 0; j < lanes; j++ {
			stats[laneCol[j]].Iterations = it + 1
		}
		AP.Reshape(n, width)
		a.MulVecDotBlockW(workers, P, AP, paps)
		// Lanes whose preconditioner broke positive-definiteness stop here,
		// with x as of BEFORE this iteration's update. Survivors get their
		// step size.
		nk := 0
		for j := 0; j < lanes; j++ {
			pap := paps[j]
			if pap <= 0 || math.IsNaN(pap) {
				continue
			}
			alphas[nk] = rzs[j] / pap
			keep[nk] = j
			nk++
		}
		if nk < lanes {
			lanes = compactLanes(workers, keep[:nk], lanes, X, ci, col, out, laneCol, rzs, bnorms,
				R, PrevR, P, AP) // AP is consumed by the residual update below
			if lanes == 0 {
				break
			}
			width = R.K()
		}
		clear(alphas[lanes:width])
		matrix.AxpyPairNormBlockW(workers, X, R, alphas[:width], P, AP, norms)
		charge(stats, laneCol[:lanes], int64(a.NNZ()+10*n), 2)
		nk = 0
		for j := 0; j < lanes; j++ {
			res := norms[j] / bnorms[j]
			stats[laneCol[j]].Residual = res
			if res <= tol {
				stats[laneCol[j]].Converged = true
				continue
			}
			keep[nk] = j
			nk++
		}
		if nk < lanes {
			// AP is NOT compacted: the next iteration fully overwrites it.
			lanes = compactLanes(workers, keep[:nk], lanes, X, ci, col, out, laneCol, rzs, bnorms,
				R, PrevR, P)
			if lanes == 0 {
				break
			}
			width = R.K()
		}
		// One preconditioner pass for every still-active lane.
		Z = pc.applyHTopBlock(workers, R, lanes, ws)
		charge(stats, laneCol[:lanes], applyWork, applyDepth)
		matrix.DotsBlockW(workers, Z, R, PrevR, zdiffs, newRzs)
		nfall := 0 // lanes needing the unpreconditioned fallback direction
		for j := 0; j < lanes; j++ {
			beta := zdiffs[j] / rzs[j]
			if beta < 0 || math.IsNaN(beta) {
				beta = 0 // restart
			}
			betas[j] = beta
			rzs[j] = newRzs[j]
			if rzs[j] <= 0 || math.IsNaN(rzs[j]) {
				keep[nfall] = j
				nfall++
			}
		}
		clear(betas[lanes:width])
		if nfall > 0 {
			matrix.DotBlockIntoW(workers, R, R, rrs)
			zd, rd := Z.Data(), R.Data()
			for fi := 0; fi < nfall; fi++ {
				j := keep[fi]
				rzs[j] = rrs[j]
				for v := 0; v < n; v++ { // z lane j ← r lane j (Z is precond scratch)
					zd[v*width+j] = rd[v*width+j]
				}
			}
		}
		matrix.AxpyBlockW(workers, P, betas[:width], P, Z)
	}
	// maxIter exhausted: remaining lanes finish with their current iterate.
	for j := 0; j < lanes; j++ {
		finishBlockLane(workers, X, j, ci, col, out, laneCol[j])
	}
}

// charge adds one operation's analytic work and depth to the stats of every
// live lane, each lane at its original column laneCol[j].
func charge(stats []SolveStats, laneCol []int, work, depth int64) {
	for _, c := range laneCol {
		stats[c].Work += work
		stats[c].Depth += depth
	}
}

// compactLanes retires every lane NOT listed in keep — finishing its output
// column — and compacts the listed blocks and per-lane scalars down to the
// survivors via KeepLanes (pure data movement; surviving lanes' values are
// untouched) at their blockWidth. keep must be ascending. Returns the new
// lane count.
func compactLanes(workers int, keep []int, lanes int, x *matrix.Block, ci *matrix.CompIndex,
	col []float64, out *matrix.Block, laneCol []int, rzs, bnorms []float64,
	blocks ...*matrix.Block) int {
	ki := 0
	for j := 0; j < lanes; j++ {
		if ki < len(keep) && keep[ki] == j {
			ki++
			continue
		}
		finishBlockLane(workers, x, j, ci, col, out, laneCol[j])
	}
	width := blockWidth(len(keep))
	x.KeepLanes(width, keep)
	for _, b := range blocks {
		b.KeepLanes(width, keep)
	}
	for i, j := range keep {
		laneCol[i] = laneCol[j]
		rzs[i] = rzs[j]
		bnorms[i] = bnorms[j]
	}
	return len(keep)
}
