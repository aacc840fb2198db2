package solver

import (
	"sync"
	"sync/atomic"

	"parlap/internal/matrix"
	"parlap/internal/obs"
)

// workspace holds every per-solve scratch buffer of the chain's apply path
// and the outer PCG driver: per level the Chebyshev recurrence blocks, the
// elimination forward/back buffers, at the bottom the direct-solve pair, and
// (lazily) the outer iteration's blocks. One workspace serves one
// Solve/SolveBlock/stream-window at a time; the Chain's wsPool (a
// sync.Pool), which every solve and PrecondApplyIntoW draws from, reuses
// them across requests, so steady-state preconditioner applications
// allocate nothing.
//
// Every buffer is fully overwritten before it is read on each use — the
// chain's kernels either copy into them or write every slot — so a recycled
// workspace produces bitwise-identical results to a fresh one, preserving
// the Chain/Solver equivalence contracts. Scratch is held as contiguous
// matrix.Block multi-vectors (vertex-major interleaved); grow reshapes them
// in place to the batch width of the current solve — width 1 for a single
// right-hand side, which runs the same block recursion.
type workspace struct {
	c    *Chain
	cols int

	// trace is the solve's fixed-slot stage timer. The chain kernels
	// accumulate per-level nanoseconds into it as they run; keeping it in
	// the pooled workspace (a plain value, fixed arrays) is what lets the
	// instrumented steady-state apply path stay at zero heap allocations.
	// wsPool.get resets it, so every checkout starts a fresh trace.
	trace obs.SolveTrace

	lvl []levelWS
	bot bottomWS

	// pool is the wsPool the workspace is checked out of (nil for one held
	// directly) and charged the footprint it has charged there. Growth
	// while checked out (ensureOuter) is charged as it happens, so
	// workspaces that grow while out together all show in the pool's peak.
	pool    *wsPool
	charged int64

	// lanes is how many lanes of the pass in flight are live (applyHTopBlock
	// sets it); a block wider than that carries a zero pad lane, which the
	// bottom-solve counter does not count.
	lanes int

	// outer PCG scratch, built lazily by ensureOuter (chain-only workspaces
	// never pay for it). pcgScal packs the block driver's per-lane scalar
	// scratch (dots, norms, step sizes); pcgLane its
	// lane bookkeeping (original column per lane + the compaction keep
	// list); pcgCol a single plain column for finishing dropped lanes.
	outerN                           int
	pcgX, pcgR, pcgAp, pcgPrev, pcgP matrix.Block
	pcgScal                          []float64
	pcgLane                          []int
	pcgCol                           []float64
}

// levelWS is one level's scratch: the Chebyshev recurrence blocks (sized to
// the level's vertex count), the elimination replay buffers and the
// back-substitution output (which is also what applyHBlock returns).
type levelWS struct {
	chebX, chebR, chebP, chebAp matrix.Block // n_i × k
	fwdWork                     matrix.Block // n_i × k
	fwdCarry                    matrix.Block // len(Elim.Ops) × k
	fwdRed                      matrix.Block // len(Elim.Keep) × k
	backX                       matrix.Block // n_i × k
}

// bottomWS is the bottom direct solve's scratch: the solution block and the
// grounded right-hand side.
type bottomWS struct {
	x, g matrix.Block
}

// growFloats returns buf resized to length k, reusing its backing when
// capacity allows; contents are undefined.
func growFloats(buf []float64, k int) []float64 {
	if cap(buf) < k {
		return make([]float64, k)
	}
	return buf[:k]
}

func growInts(buf []int, k int) []int {
	if cap(buf) < k {
		return make([]int, k)
	}
	return buf[:k]
}

// newWorkspace builds a workspace for k columns over chain c.
func newWorkspace(c *Chain, k int) *workspace {
	ws := &workspace{c: c}
	ws.lvl = make([]levelWS, len(c.Levels))
	ws.grow(k)
	return ws
}

// grow reshapes the chain-level scratch to exactly k columns. Reshape reuses
// each block's backing array whenever capacity allows, so width changes on a
// pooled workspace are slice-header work, not allocation, once the widest
// batch has been seen. Width must be exact (not merely "at least k"): the
// interleaved layout bakes the lane stride into every block, so a stale
// wider shape would misindex.
func (ws *workspace) grow(k int) {
	if k == ws.cols {
		return
	}
	c := ws.c
	for i := range c.Levels {
		lvl := &c.Levels[i]
		n := lvl.G.N
		l := &ws.lvl[i]
		l.chebX.Reshape(n, k)
		l.chebR.Reshape(n, k)
		l.chebP.Reshape(n, k)
		l.chebAp.Reshape(n, k)
		l.fwdWork.Reshape(lvl.Elim.OrigN, k)
		l.fwdCarry.Reshape(len(lvl.Elim.Ops), k)
		l.fwdRed.Reshape(len(lvl.Elim.Keep), k)
		l.backX.Reshape(lvl.Elim.OrigN, k)
	}
	ws.bot.x.Reshape(c.Bottom.N(), k)
	ws.bot.g.Reshape(c.Bottom.GroundedLen(), k)
	ws.cols = k
}

// ensureOuter equips the workspace with the outer PCG scratch for a k-column
// solve over vectors of length n (the solver's top-level system size).
// Blocks are reshaped in place; the scalar scratch packs 9 k-sized lanes
// (see pcgFlexibleBlock).
func (ws *workspace) ensureOuter(n, k int) {
	if n < ws.outerN {
		n = ws.outerN
	}
	ws.outerN = n
	ws.pcgX.Reshape(n, k)
	ws.pcgR.Reshape(n, k)
	ws.pcgAp.Reshape(n, k)
	ws.pcgPrev.Reshape(n, k)
	ws.pcgP.Reshape(n, k)
	ws.pcgScal = growFloats(ws.pcgScal, 9*k)
	ws.pcgLane = growInts(ws.pcgLane, 2*k)
	ws.pcgCol = growFloats(ws.pcgCol, n)
	if ws.pool != nil {
		ws.pool.charge(ws)
	}
}

// bytes estimates the workspace's retained footprint (backing capacities —
// Reshape never shrinks them).
func (ws *workspace) bytes() int64 {
	var n int64
	blk := func(b *matrix.Block) {
		n += int64(b.Cap()) * 8
	}
	for i := range ws.lvl {
		l := &ws.lvl[i]
		blk(&l.chebX)
		blk(&l.chebR)
		blk(&l.chebP)
		blk(&l.chebAp)
		blk(&l.fwdWork)
		blk(&l.fwdCarry)
		blk(&l.fwdRed)
		blk(&l.backX)
	}
	blk(&ws.bot.x)
	blk(&ws.bot.g)
	blk(&ws.pcgX)
	blk(&ws.pcgR)
	blk(&ws.pcgAp)
	blk(&ws.pcgPrev)
	blk(&ws.pcgP)
	n += int64(cap(ws.pcgScal))*8 + int64(cap(ws.pcgLane))*8 + int64(cap(ws.pcgCol))*8
	return n
}

// wsPool reuses workspaces across solve requests via a sync.Pool while
// tracking an accountable footprint: outstanding is the byte sum of
// workspaces currently checked out, peak its high-water mark. The pool
// retains roughly one workspace per concurrent solve between GCs, so peak is
// the honest estimate a byte-budgeted cache should charge (see
// Solver.MemoryBytes).
type wsPool struct {
	pool        sync.Pool
	outstanding atomic.Int64
	peak        atomic.Int64
}

// get returns a workspace for chain c shaped to exactly k columns.
func (p *wsPool) get(c *Chain, k int) *workspace {
	ws, _ := p.pool.Get().(*workspace)
	if ws == nil {
		ws = newWorkspace(c, k)
	} else {
		ws.grow(k)
	}
	ws.trace.Reset()
	ws.pool, ws.charged = p, 0
	p.charge(ws)
	return ws
}

// charge brings outstanding (and so peak) up to date with ws's current
// footprint.
func (p *wsPool) charge(ws *workspace) {
	if b := ws.bytes(); b != ws.charged {
		p.raise(p.outstanding.Add(b - ws.charged))
		ws.charged = b
	}
}

// put returns a workspace to the pool, releasing the footprint it charged.
// Every growth while checked out was charged when it happened, so
// outstanding never drifts and peak reflects the scratch the pool really
// retains.
func (p *wsPool) put(ws *workspace) {
	p.outstanding.Add(-ws.charged)
	ws.pool = nil
	p.pool.Put(ws)
}

// raise lifts the peak high-water mark to cur if it exceeds it.
func (p *wsPool) raise(cur int64) {
	for {
		old := p.peak.Load()
		if cur <= old || p.peak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// PeakBytes reports the pool's high-water footprint estimate.
func (p *wsPool) PeakBytes() int64 { return p.peak.Load() }
