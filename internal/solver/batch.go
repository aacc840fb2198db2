package solver

import (
	"math"
	"time"

	"parlap/internal/matrix"
	"parlap/internal/obs"
	"parlap/internal/wd"
)

// The batched solve path: the whole preconditioner-chain recursion — the
// elimination-log replays, the per-level Chebyshev sweeps, the CSR
// mat-vecs, the bottom direct solve — operates on one contiguous n×k
// matrix.Block per stage, amortizing every traversal of the chain's (large,
// shared) static structure across the batch and streaming the k lane values
// per vertex from adjacent memory (the vertex-major interleaved layout).
// Lane arithmetic is never mixed: each block kernel performs, per lane,
// exactly the floating-point operations of its single-vector form in the
// same order, so SolveBlock returns bitwise-identical vectors to k
// independent Solve calls. Lanes that converge (or break down) are
// compacted out of the block — pure data movement via Block.KeepLanes —
// exactly where the single-column driver would have stopped.
//
// Scratch lives in the same per-solve workspace as the single path (each
// buffer a Block reshaped to the batch width), so steady-state batch
// applications reuse backing arrays across iterations and stream windows
// and the Workers:1 apply path performs zero heap allocations.

// solveLevelBlock is solveLevel over the k lanes of bs: one Chebyshev sweep
// (or one bottom direct solve) serving the whole batch. The result is a
// workspace-resident block.
func (c *Chain) solveLevelBlock(workers, i int, bs *matrix.Block, ws *workspace) *matrix.Block {
	if i >= len(c.Levels) {
		k := bs.K()
		c.bottomSolves.Add(int64(k))
		c.rec.Add(int64(k)*c.bottomSolveOps(), int64(c.Bottom.GroundedLen()))
		t0 := time.Now()
		c.Bottom.SolveBlockIntoW(workers, bs, &ws.bot.x, &ws.bot.g, ws.bot.scal)
		ws.trace.BottomNS += time.Since(t0).Nanoseconds()
		return &ws.bot.x
	}
	return c.chebLevelBlock(workers, i, bs, ws)
}

// applyHBlock is applyH over the k lanes of r: one forward/backward replay
// of the elimination log per batch instead of per RHS.
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
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, &l.backX, lvl.CompIdx, l.scal)
	ws.trace.BackNS[li] += time.Since(t1).Nanoseconds()
	c.rec.Add(int64(r.K())*(int64(len(lvl.Elim.Ops))+int64(r.N())), int64(lvl.Elim.Rounds)+1)
	return &l.backX
}

// applyHTopBlock applies the whole-chain preconditioner to the k lanes of rs
// into ws and returns the workspace-resident block. It reshapes the chain
// scratch to rs's width when the batch narrowed (lane dropout in the outer
// driver), which on a warm workspace is slice-header work only.
func (c *Chain) applyHTopBlock(workers int, rs *matrix.Block, ws *workspace) *matrix.Block {
	k := rs.K()
	if ws.cols != k {
		ws.grow(k)
	}
	if k == 1 {
		// Single-lane batches run the plain path (which counts the apply
		// itself); the result buffer is the same workspace block either way.
		c.applyHTop(workers, rs.Vec(), ws)
		if len(c.Levels) == 0 {
			return &ws.bot.x
		}
		return &ws.lvl[0].backX
	}
	c.precondApplies.Add(1)
	t0 := time.Now()
	var zs *matrix.Block
	if len(c.Levels) == 0 {
		c.Bottom.SolveBlockIntoW(workers, rs, &ws.bot.x, &ws.bot.g, ws.bot.scal)
		zs = &ws.bot.x
		ws.trace.BottomNS += time.Since(t0).Nanoseconds()
	} else {
		zs = c.applyHBlock(workers, 0, rs, ws)
	}
	ws.trace.PrecondNS += time.Since(t0).Nanoseconds()
	return zs
}

// chebLevelBlock runs chebLevel's fixed-degree preconditioned Chebyshev
// iteration on k lanes at once. The recurrence scalars depend only on the
// spectral interval and the iteration index — never on the data — so one
// scalar schedule drives all lanes and each lane reproduces the
// single-column iteration bitwise. The direction/iterate updates and the
// mat-vec/residual updates are fused (ChebUpdateBlockW, MulVecAxpyBlockW),
// sweeping the n×k working set twice per iteration instead of four times.
func (c *Chain) chebLevelBlock(workers, i int, bs *matrix.Block, ws *workspace) *matrix.Block {
	k := bs.K()
	l := &ws.lvl[i]
	lvl := &c.Levels[i]
	if k == 1 {
		c.chebLevel(workers, i, bs.Vec(), ws)
		return &l.chebX
	}
	a := lvl.Lap
	ci := lvl.CompIdx
	x, r, p, ap := &l.chebX, &l.chebR, &l.chebP, &l.chebAp
	n := a.N
	// Exclusive stage timing, mirroring chebLevel: the recursion's time
	// lands in deeper levels' slots, not this one's.
	t0 := time.Now()
	var innerNS int64
	x.Zero()
	r.CopyFrom(bs)
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, r, ci, l.scal)
	co := newChebCoeffs(lvl.EigLo, lvl.EigHi)
	for it := 0; it < lvl.ChebIts; it++ {
		ta := time.Now()
		z := c.applyHBlock(workers, i, r, ws)
		innerNS += time.Since(ta).Nanoseconds()
		matrix.ProjectOutConstantMaskedBlockIdxW(workers, z, ci, l.scal)
		alpha, beta, first := co.step(it)
		matrix.ChebUpdateBlockW(workers, p, z, beta, x, alpha, first)
		a.MulVecAxpyBlockW(workers, p, ap, -alpha, r)
		c.rec.Add(int64(k)*int64(a.NNZ()+6*n), 2)
	}
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, x, ci, l.scal)
	ws.trace.ChebNS[obs.LevelIndex(i)] += time.Since(t0).Nanoseconds() - innerNS
	return x
}

// finishBlockLane retires one lane of the outer driver's iterate block: its
// column is gathered into the plain scratch vector col, given the single
// driver's final projection, and scattered into the caller-owned output
// column. Using the single-vector projection kernel on a contiguous copy
// keeps the finished value bitwise identical to pcgFlexible's exit path.
func finishBlockLane(workers int, x *matrix.Block, lane int, ci *matrix.CompIndex, col []float64, out *matrix.Block, outCol int) {
	k := x.K()
	xd := x.Data()
	for v := range col {
		col[v] = xd[v*k+lane]
	}
	matrix.ProjectOutConstantMaskedIdxW(workers, col, ci)
	out.SetCol(outCol, col)
}

// pcgFlexibleBlock runs pcgFlexible on the k0 lanes of rhs, sharing one
// preconditioner-chain pass per iteration across all still-active lanes.
// Every lane follows the exact operation sequence of the single-column
// driver — same kernels, same order, same break points — so out's column c
// is bitwise identical to pcgFlexible on rhs's column c. Lanes leave the
// active block via KeepLanes compaction (pure data movement — surviving
// lanes' arithmetic is untouched) when they converge or the preconditioner
// breaks down for them, exactly where pcgFlexible would have returned; a
// retiring lane is finished (projected and written to out) at that moment.
//
// out must be shaped n×k0 by the caller and is fully overwritten. stats
// must hold k0 zeroed entries. All scratch comes from ws (ensureOuter), so
// the Workers:1 steady state allocates nothing.
func pcgFlexibleBlock(workers int, a *matrix.Sparse, chain *Chain, rhs *matrix.Block,
	ci *matrix.CompIndex, tol float64, maxIter int, ws *workspace, rec *wd.Recorder,
	out *matrix.Block, stats []SolveStats) {
	n := a.N
	k0 := rhs.K()
	out.Zero()
	ws.ensureOuter(n, k0)
	// Per-lane scalar scratch: 13 k0-sized lanes packed into pcgScal.
	scal := ws.pcgScal
	bnorms := scal[0:k0]
	rzs := scal[k0 : 2*k0]
	alphas := scal[2*k0 : 3*k0]
	negAlphas := scal[3*k0 : 4*k0]
	paps := scal[4*k0 : 5*k0]
	norms := scal[5*k0 : 6*k0]
	betas := scal[6*k0 : 7*k0]
	zdiffs := scal[7*k0 : 8*k0]
	newRzs := scal[8*k0 : 9*k0]
	rrs := scal[9*k0 : 10*k0]
	dotTmp := scal[10*k0 : 11*k0]
	projScratch := scal[11*k0 : 13*k0]
	laneCol := ws.pcgLane[0:k0] // original output column of each live lane
	keep := ws.pcgLane[k0 : 2*k0]
	col := ws.pcgCol[:n]

	R := &ws.pcgR
	R.Reshape(n, k0)
	R.CopyFrom(rhs)
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, R, ci, projScratch)
	matrix.Norm2BlockIntoW(workers, R, bnorms, dotTmp)
	// Zero right-hand sides converge immediately with x = 0, unprojected,
	// like the single driver's early return; everything else becomes a lane.
	lanes := 0
	for c := 0; c < k0; c++ {
		if bnorms[c] == 0 {
			stats[c].Converged = true
			continue
		}
		keep[lanes] = c
		laneCol[lanes] = c
		bnorms[lanes] = bnorms[c] // in-place compaction: lanes <= c always
		lanes++
	}
	finish := func() {
		w, dep := rec.Work(), rec.Depth()
		for c := range stats {
			stats[c].Work, stats[c].Depth = w, dep
		}
	}
	if lanes == 0 {
		finish()
		return
	}
	if lanes < k0 {
		R.KeepLanes(keep[:lanes])
	}

	X := &ws.pcgX
	X.Reshape(n, lanes)
	X.Zero()
	Z := chain.applyHTopBlock(workers, R, ws)
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, Z, ci, projScratch)
	matrix.DotBlockIntoW(workers, R, Z, rzs, dotTmp)
	P := &ws.pcgP
	P.Reshape(n, lanes)
	P.CopyFrom(Z)
	PrevR := &ws.pcgPrev
	PrevR.Reshape(n, lanes)
	PrevR.CopyFrom(R)
	AP := &ws.pcgAp
	Diff := &ws.pcgDiff

	for it := 0; it < maxIter && lanes > 0; it++ {
		for j := 0; j < lanes; j++ {
			stats[laneCol[j]].Iterations = it + 1
		}
		AP.Reshape(n, lanes)
		a.MulVecBlockW(workers, P, AP)
		matrix.DotBlockIntoW(workers, P, AP, paps, dotTmp)
		// Lanes whose preconditioner broke positive-definiteness stop here,
		// with x as of BEFORE this iteration's update (the single driver's
		// break point). Survivors get their step size.
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
		}
		matrix.AxpyBlockW(workers, X, alphas[:lanes], P, X)
		for j := 0; j < lanes; j++ {
			negAlphas[j] = -alphas[j]
		}
		matrix.AxpyBlockW(workers, R, negAlphas[:lanes], AP, R)
		matrix.Norm2BlockIntoW(workers, R, norms, dotTmp)
		rec.Add(int64(lanes)*int64(a.NNZ()+10*n), 2)
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
		}
		// One chain pass for every still-active lane.
		Z = chain.applyHTopBlock(workers, R, ws)
		matrix.ProjectOutConstantMaskedBlockIdxW(workers, Z, ci, projScratch)
		Diff.Reshape(n, lanes)
		matrix.SubIntoBlockW(workers, Diff, R, PrevR)
		matrix.DotBlockIntoW(workers, Z, Diff, zdiffs, dotTmp)
		matrix.DotBlockIntoW(workers, R, Z, newRzs, dotTmp)
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
		if nfall > 0 {
			matrix.DotBlockIntoW(workers, R, R, rrs, dotTmp)
			zd, rd := Z.Data(), R.Data()
			zk := Z.K()
			for fi := 0; fi < nfall; fi++ {
				j := keep[fi]
				rzs[j] = rrs[j]
				for v := 0; v < n; v++ { // z lane j ← r lane j (Z is chain scratch)
					zd[v*zk+j] = rd[v*zk+j]
				}
			}
		}
		matrix.AxpyBlockW(workers, P, betas[:lanes], P, Z)
		PrevR.CopyFrom(R)
	}
	// maxIter exhausted: remaining lanes finish with their current iterate.
	for j := 0; j < lanes; j++ {
		finishBlockLane(workers, X, j, ci, col, out, laneCol[j])
	}
	finish()
}

// compactLanes retires every lane NOT listed in keep — finishing its output
// column — and compacts the listed blocks and per-lane scalars down to the
// survivors via KeepLanes (pure data movement; surviving lanes' values are
// untouched). keep must be ascending. Returns the new lane count.
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
	x.KeepLanes(keep)
	for _, b := range blocks {
		b.KeepLanes(keep)
	}
	for i, j := range keep {
		laneCol[i] = laneCol[j]
		rzs[i] = rzs[j]
		bnorms[i] = bnorms[j]
	}
	return len(keep)
}
