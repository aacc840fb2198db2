package solver

import (
	"parlap/internal/matrix"
	"parlap/internal/wd"
)

// chebCoeffs steps the Chebyshev recurrence scalars for spec(M⁻¹A) ⊆
// [lo, hi]. The schedule depends only on the interval and the iteration
// index — never on the data — so one schedule drives every lane of
// chebLevelBlock's sweep, which is what keeps a lane of a k-wide sweep
// bitwise identical to the same column swept alone. A value type with no
// allocation: safe for the zero-alloc apply path.
type chebCoeffs struct {
	d, cc, alpha, beta float64
}

func newChebCoeffs(lo, hi float64) chebCoeffs {
	return chebCoeffs{d: (hi + lo) / 2, cc: (hi - lo) / 2}
}

// step advances to iteration k and returns the iteration's (alpha, beta);
// first reports k == 0, where the search direction is initialized instead
// of beta-updated. The two beta expressions are kept verbatim from the
// original recurrence — they are algebraically equal but not bitwise, and
// the pinned schedules depend on the exact float sequence.
func (c *chebCoeffs) step(k int) (alpha, beta float64, first bool) {
	switch k {
	case 0:
		c.alpha = 1 / c.d
		return c.alpha, 0, true
	case 1:
		c.beta = 0.5 * (c.cc * c.alpha) * (c.cc * c.alpha)
		c.alpha = 1 / (c.d - c.beta/c.alpha)
	default:
		c.beta = (c.cc * c.alpha / 2) * (c.cc * c.alpha / 2)
		c.alpha = 1 / (c.d - c.beta/c.alpha)
	}
	return c.alpha, c.beta, false
}

// SolveStats reports what an iterative solve did.
type SolveStats struct {
	Iterations int
	Converged  bool
	Residual   float64 // final ‖b−Ax‖₂ / ‖b‖₂ (b projected onto range(A))
	// Work and Depth are this one solve's analytic PRAM cost (package wd);
	// a lane of a block solve reports what a solve of its column alone costs.
	Work, Depth int64
}

// diagPrecond is the baselines' preconditioner: z = r for CG (inv nil), or
// z[i] = inv[i]·r[i] for Jacobi-PCG, into a block it owns, projected per
// component of ci as the preconditioner contract asks. Its cost is zero,
// so a baseline's Work/Depth count the outer iteration alone.
type diagPrecond struct {
	inv []float64
	ci  *matrix.CompIndex
	z   matrix.Block
}

func (d *diagPrecond) applyHTopBlock(workers int, rs *matrix.Block, _ int, _ *workspace) *matrix.Block {
	d.z.Reshape(rs.N(), rs.K())
	if d.inv == nil {
		d.z.CopyFrom(rs)
	} else {
		k := rs.K()
		zd, rd := d.z.Data(), rs.Data()
		for i, inv := range d.inv {
			for j := i * k; j < (i+1)*k; j++ {
				zd[j] = inv * rd[j]
			}
		}
	}
	matrix.ProjectOutConstantMaskedBlockIdxW(workers, &d.z, d.ci)
	return &d.z
}

func (*diagPrecond) laneCost() (work, depth int64) { return 0, 0 }

// baselinePCG runs the outer PCG driver preconditioned by pc on one
// right-hand side at workers 0, on a workspace with no chain, and charges
// the solve's Work/Depth to rec once.
func baselinePCG(a *matrix.Sparse, b []float64, pc *diagPrecond, comp []int, numComp int,
	tol float64, maxIter int, rec *wd.Recorder) ([]float64, SolveStats) {
	x := make([]float64, a.N)
	rhs, out := matrix.VecBlock(b), matrix.VecBlock(x)
	var st [1]SolveStats
	pc.ci = matrix.NewCompIndex(comp, numComp)
	pcgFlexibleBlock(0, a, pc, &rhs, 0, 1, pc.ci, tol, maxIter, &workspace{}, &out, st[:])
	rec.Add(st[0].Work, st[0].Depth)
	return x, st[0]
}

// CG is the unpreconditioned conjugate-gradient baseline.
func CG(a *matrix.Sparse, b []float64, comp []int, numComp int, tol float64, maxIter int, rec *wd.Recorder) ([]float64, SolveStats) {
	return baselinePCG(a, b, &diagPrecond{}, comp, numComp, tol, maxIter, rec)
}

// JacobiPCG is the diagonally preconditioned CG baseline.
func JacobiPCG(a *matrix.Sparse, b []float64, comp []int, numComp int, tol float64, maxIter int, rec *wd.Recorder) ([]float64, SolveStats) {
	inv := make([]float64, a.N)
	for i, d := range a.Diag {
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	return baselinePCG(a, b, &diagPrecond{inv: inv}, comp, numComp, tol, maxIter, rec)
}
