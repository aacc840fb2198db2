package solver

import (
	"math"

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

// pcgFlexible is a flexible (Polak–Ribière) preconditioned conjugate
// gradient: it tolerates the mildly nonlinear preconditioner that a
// recursive Chebyshev chain is in floating point. Stops when the relative
// residual drops below tol or after maxIter iterations. workers selects the
// vector-kernel parallelism. It drives the CG and Jacobi-PCG baselines; the
// chain solves run the same iteration lane-wise in pcgFlexibleBlock. The
// stats count (nnz + 10n, 2) per iteration that passes the pap check (not the
// preconditioner); rec, if any, is charged that total once at the end.
func pcgFlexible(workers int, a *matrix.Sparse, b []float64, precond func([]float64) []float64,
	ci *matrix.CompIndex, tol float64, maxIter int, rec *wd.Recorder) ([]float64, SolveStats) {
	n := a.N
	x := make([]float64, n)
	r, p, ap := make([]float64, n), make([]float64, n), make([]float64, n)
	prevR, diff := make([]float64, n), make([]float64, n)
	copy(r, b)
	matrix.ProjectOutConstantMaskedIdxW(workers, r, ci)
	bnorm := matrix.Norm2W(workers, r)
	st := SolveStats{}
	if bnorm == 0 {
		st.Converged = true
		return x, st
	}
	z := precond(r)
	matrix.ProjectOutConstantMaskedIdxW(workers, z, ci)
	copy(p, z)
	rz := matrix.DotW(workers, r, z)
	copy(prevR, r)
	for k := 0; k < maxIter; k++ {
		st.Iterations = k + 1
		a.MulVecW(workers, p, ap)
		pap := matrix.DotW(workers, p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			break // preconditioner broke positive-definiteness; stop
		}
		alpha := rz / pap
		matrix.AxpyIntoW(workers, x, alpha, p, x)
		matrix.AxpyIntoW(workers, r, -alpha, ap, r)
		res := matrix.Norm2W(workers, r) / bnorm
		st.Residual = res
		st.Work += int64(a.NNZ() + 10*n)
		st.Depth += 2
		if res <= tol {
			st.Converged = true
			break
		}
		z = precond(r)
		matrix.ProjectOutConstantMaskedIdxW(workers, z, ci)
		// Polak–Ribière: β = z·(r − r_prev) / rz_old (flexible variant).
		matrix.SubIntoW(workers, diff, r, prevR)
		beta := matrix.DotW(workers, z, diff) / rz
		if beta < 0 || math.IsNaN(beta) {
			beta = 0 // restart
		}
		rz = matrix.DotW(workers, r, z)
		if rz <= 0 || math.IsNaN(rz) {
			rz = matrix.DotW(workers, r, r) // fall back to unpreconditioned direction
			copy(z, r)                      // z is precond scratch: safe to overwrite
		}
		matrix.AxpyIntoW(workers, p, beta, p, z)
		copy(prevR, r)
	}
	matrix.ProjectOutConstantMaskedIdxW(workers, x, ci)
	rec.Add(st.Work, st.Depth)
	return x, st
}

// CG is the unpreconditioned conjugate-gradient baseline.
func CG(a *matrix.Sparse, b []float64, comp []int, numComp int, tol float64, maxIter int, rec *wd.Recorder) ([]float64, SolveStats) {
	return pcgFlexible(0, a, b, matrix.CopyVec, matrix.NewCompIndex(comp, numComp), tol, maxIter, rec)
}

// JacobiPCG is the diagonally preconditioned CG baseline.
func JacobiPCG(a *matrix.Sparse, b []float64, comp []int, numComp int, tol float64, maxIter int, rec *wd.Recorder) ([]float64, SolveStats) {
	inv := make([]float64, a.N)
	for i, d := range a.Diag {
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	precond := func(r []float64) []float64 {
		z := make([]float64, len(r))
		for i := range z {
			z[i] = inv[i] * r[i]
		}
		return z
	}
	return pcgFlexible(0, a, b, precond, matrix.NewCompIndex(comp, numComp), tol, maxIter, rec)
}
