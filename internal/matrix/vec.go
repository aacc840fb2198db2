package matrix

import (
	"math"

	"parlap/internal/par"
)

// Every vector kernel has a W-suffixed form taking the solver's
// Options.Workers knob (0 = GOMAXPROCS, 1 = sequential); the ones callers
// use without a worker count also keep a plain form. Reductions use par's
// fixed-grain deterministic trees, so the W forms return bitwise-identical
// values for every worker count.
//
// Each W kernel takes an explicit workers==1 fast path with inline loops:
// the closures the parallel primitives require escape to the heap at every
// call, so the fast paths are what make a steady-state preconditioner
// application allocation-free at Workers:1. Reduction fast paths fold the
// same par.ReduceGrain chunks in chunk order as the parallel tree, keeping
// the sequential result bitwise identical to every other worker count.

// Dot returns the inner product of x and y, computed with a deterministic
// chunked parallel reduction.
func Dot(x, y []float64) float64 { return DotW(0, x, y) }

// DotW is Dot with an explicit worker count.
func DotW(workers int, x, y []float64) float64 {
	if par.Sequential(workers) {
		n := len(x)
		var acc float64
		for lo := 0; lo < n; lo += par.ReduceGrain {
			hi := lo + par.ReduceGrain
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i] * y[i]
			}
			if lo == 0 {
				acc = s
			} else {
				acc += s
			}
		}
		return acc
	}
	return par.SumFloat64W(workers, len(x), func(i int) float64 { return x[i] * y[i] })
}

// Norm2W returns the Euclidean norm of x.
func Norm2W(workers int, x []float64) float64 { return math.Sqrt(DotW(workers, x, x)) }

// AxpyIntoW computes dst = a*x + y elementwise (dst may alias x or y).
func AxpyIntoW(workers int, dst []float64, a float64, x, y []float64) {
	if par.Sequential(workers) {
		for i := range dst {
			dst[i] = a*x[i] + y[i]
		}
		return
	}
	par.ForChunkedW(workers, len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a*x[i] + y[i]
		}
	})
}

// ScaleIntoW computes dst = a*x.
func ScaleIntoW(workers int, dst []float64, a float64, x []float64) {
	if par.Sequential(workers) {
		for i := range dst {
			dst[i] = a * x[i]
		}
		return
	}
	par.ForChunkedW(workers, len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a * x[i]
		}
	})
}

// SubIntoW computes dst = x - y.
func SubIntoW(workers int, dst, x, y []float64) {
	if par.Sequential(workers) {
		for i := range dst {
			dst[i] = x[i] - y[i]
		}
		return
	}
	par.ForChunkedW(workers, len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = x[i] - y[i]
		}
	})
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Mean returns the arithmetic mean of x (0 for empty x).
func Mean(x []float64) float64 { return MeanW(0, x) }

// MeanW is Mean with an explicit worker count.
func MeanW(workers int, x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if par.Sequential(workers) {
		n := len(x)
		var acc float64
		for lo := 0; lo < n; lo += par.ReduceGrain {
			hi := lo + par.ReduceGrain
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			if lo == 0 {
				acc = s
			} else {
				acc += s
			}
		}
		return acc / float64(n)
	}
	return par.SumFloat64W(workers, len(x), func(i int) float64 { return x[i] }) / float64(len(x))
}

// ProjectOutConstant subtracts the mean from x in place, projecting onto the
// space orthogonal to the all-ones vector — the range of a connected
// Laplacian. Solver iterations call this to keep iterates well-posed.
func ProjectOutConstant(x []float64) { ProjectOutConstantW(0, x) }

// ProjectOutConstantW is ProjectOutConstant with an explicit worker count.
func ProjectOutConstantW(workers int, x []float64) {
	mu := MeanW(workers, x)
	if par.Sequential(workers) {
		for i := range x {
			x[i] -= mu
		}
		return
	}
	par.ForChunkedW(workers, len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] -= mu
		}
	})
}

// ProjectOutConstantMaskedW subtracts the mean computed over each component
// of a partition: comp[v] gives the component of v and counts the component
// sizes. Used when the Laplacian's graph is disconnected (null space is
// per-component constants). The single-component case (the common one on solver hot
// paths) reduces with the deterministic parallel tree; the multi-component
// case builds a component-sorted index and runs the flat segmented parallel
// reduction of ProjectOutConstantMaskedIdxW. Hot paths that project against
// the same partition repeatedly should build the CompIndex once (solver
// chain levels cache one) and call the Idx form directly.
func ProjectOutConstantMaskedW(workers int, x []float64, comp []int, numComp int) {
	if numComp == 1 {
		ProjectOutConstantW(workers, x)
		return
	}
	ProjectOutConstantMaskedIdxW(workers, x, NewCompIndexW(workers, comp, numComp))
}

// ANorm returns ‖x‖_A = sqrt(xᵀAx), clamping tiny negative values caused by
// roundoff on semidefinite A.
func ANorm(a *Sparse, x []float64) float64 {
	q := a.QuadForm(x)
	if q < 0 {
		q = 0
	}
	return math.Sqrt(q)
}
