package solver

import (
	"math"
	"math/rand"

	"parlap/internal/matrix"
)

// The spectral layer of chain calibration: a small preconditioned Lanczos
// estimator that measures BOTH ends of spec(H⁻¹A) per level. The old power
// iteration only estimated λmax and assumed the lower bound from the static
// κ·chebSlack product, so every level's Chebyshev interval was pessimistic
// by whatever slack the sparsifier didn't actually use; measuring the
// interval is what turns the paper's known-κᵢ Chebyshev bounds into
// practice ("measure, don't assume").
//
// The operator K = A·P (P = the chain's preconditioner application H⁻¹,
// A = the level Laplacian) is self-adjoint in the P-inner product
// ⟨r, s⟩_P = rᵀPs, and spec(A·P) = spec(H⁻¹A). Lanczos in that inner
// product needs exactly one P application per iteration — the quantities
// ⟨·,·⟩_P fall out of the z = P·v vectors the recursion already produces:
//
//	β₀ v₁ = r₀,          z₁ = P v₁
//	u  = A zⱼ − βⱼ₋₁ vⱼ₋₁
//	αⱼ = u · zⱼ                     (= ⟨u, vⱼ⟩_P)
//	u  = u − αⱼ vⱼ,  pu = P u
//	βⱼ = √(u · pu)                  (= ‖u‖_P)
//	vⱼ₊₁ = u/βⱼ,      zⱼ₊₁ = pu/βⱼ
//
// The extreme eigenvalues of the tridiagonal T = tridiag(β, α, β)
// approximate the extremes of spec(H⁻¹A) from inside (λmax(T) ≤ λmax,
// λmin(T) ≥ λmin by Rayleigh–Ritz), which is why calibrate pads both ends
// by eigSafety (chain.go) before trusting them as a Chebyshev interval.
//
// Determinism: the start vector is drawn from the (sequential) build rng,
// and every kernel below is one of the fixed-tree W kernels, so the
// estimates — and hence the whole calibrated schedule — are bitwise
// identical for every worker count.

// lanczosBounds runs iters Lanczos steps on level i's preconditioned
// operator and returns the extreme Ritz values. ws is a width-1 workspace:
// P is applyHBlock at k = 1, and the level's Chebyshev scratch doubles as
// the Lanczos vector storage (calibration runs before any solve, and
// applyHBlock(i) only touches level i's elimination buffers and the levels
// below), so the loop allocates only the O(iters) tridiagonal coefficients.
// ok is false when the estimate is unusable (zero or NaN norms before any
// Ritz value was produced) and the caller should fall back to the static
// schedule.
func (c *Chain) lanczosBounds(workers, i, iters int, rng *rand.Rand, ws *workspace) (lo, hi float64, ok bool) {
	lvl := &c.Levels[i]
	n := lvl.G.N
	l := &ws.lvl[i]
	v, vPrev, u, z := l.chebX.Vec(), l.chebR.Vec(), l.chebP.Vec(), l.chebAp.Vec()

	// Start vector: random normal, projected onto range(A) per component.
	for j := 0; j < n; j++ {
		v[j] = rng.NormFloat64()
	}
	matrix.ProjectOutConstantMaskedIdxW(workers, v, lvl.CompIdx)
	pu := c.applyHBlock(workers, i, &l.chebX, ws).Vec() // P v₀ (projected by applyHBlock)
	t := matrix.DotW(workers, v, pu)                    // ‖v₀‖²_P
	if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, 0, false
	}
	beta := math.Sqrt(t)
	matrix.ScaleIntoW(workers, z, 1/beta, pu) // z₁
	matrix.ScaleIntoW(workers, v, 1/beta, v)  // v₁
	for j := range vPrev {
		vPrev[j] = 0
	}

	alphas := make([]float64, 0, iters)
	betas := make([]float64, 0, iters)
	betaPrev := 0.0
	for it := 0; it < iters; it++ {
		lvl.Lap.MulVecW(workers, z, u) // u = A zⱼ
		if betaPrev != 0 {
			matrix.AxpyIntoW(workers, u, -betaPrev, vPrev, u)
		}
		alpha := matrix.DotW(workers, u, z)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			break
		}
		alphas = append(alphas, alpha)
		matrix.AxpyIntoW(workers, u, -alpha, v, u)
		matrix.ProjectOutConstantMaskedIdxW(workers, u, lvl.CompIdx) // kill null-space drift
		if it == iters-1 {
			break // last α recorded; no successor vector needed
		}
		pu = c.applyHBlock(workers, i, &l.chebP, ws).Vec() // P u (u lives in chebP)
		t = matrix.DotW(workers, u, pu)
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			break // invariant subspace found (or roundoff floor): T is complete
		}
		betaPrev = math.Sqrt(t)
		betas = append(betas, betaPrev)
		vPrev, v = v, vPrev
		matrix.ScaleIntoW(workers, v, 1/betaPrev, u)
		matrix.ScaleIntoW(workers, z, 1/betaPrev, pu)
	}
	if len(alphas) == 0 {
		return 0, 0, false
	}
	betas = betas[:len(alphas)-1]
	lo, hi = tridiagExtremes(alphas, betas)
	if math.IsNaN(lo) || math.IsNaN(hi) || lo <= 0 || hi <= 0 {
		return 0, 0, false
	}
	return lo, hi, true
}

// tridiagExtremes returns the smallest and largest eigenvalues of the
// symmetric tridiagonal matrix with diagonal a (length m ≥ 1) and
// off-diagonal b (length m−1), by Sturm-sequence bisection from the
// Gershgorin enclosure. Deterministic, allocation-free, ~50 bisection steps
// per end.
func tridiagExtremes(a, b []float64) (lo, hi float64) {
	m := len(a)
	glo, ghi := a[0], a[0]
	for i := 0; i < m; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(b[i-1])
		}
		if i < m-1 {
			r += math.Abs(b[i])
		}
		if a[i]-r < glo {
			glo = a[i] - r
		}
		if a[i]+r > ghi {
			ghi = a[i] + r
		}
	}
	if m == 1 {
		return a[0], a[0]
	}
	lo = bisectEig(a, b, glo, ghi, 1) // smallest: first x with count(x) ≥ 1
	hi = bisectEig(a, b, glo, ghi, m) // largest: first x with count(x) ≥ m
	return lo, hi
}

// bisectEig returns (within ~1e-12 relative width) the k-th smallest
// eigenvalue: the infimum of x with sturmCount(x) ≥ k.
func bisectEig(a, b []float64, glo, ghi float64, k int) float64 {
	lo, hi := glo, ghi
	for it := 0; it < 100 && hi-lo > 1e-13*(math.Abs(lo)+math.Abs(hi)+1e-300); it++ {
		mid := 0.5 * (lo + hi)
		if sturmCount(a, b, mid) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// sturmCount returns the number of eigenvalues of tridiag(a, b) strictly
// below x, via the standard LDLᵀ sign-count recurrence with underflow
// guarding.
func sturmCount(a, b []float64, x float64) int {
	count := 0
	d := a[0] - x
	if d < 0 {
		count++
	}
	for i := 1; i < len(a); i++ {
		if d == 0 {
			d = 1e-300
		}
		d = a[i] - x - b[i-1]*b[i-1]/d
		if d < 0 {
			count++
		}
	}
	return count
}
