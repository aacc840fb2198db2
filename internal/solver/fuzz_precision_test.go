package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The precision/layout fuzz suite: every (Precision, ReorderLevels)
// configuration must preserve the cross-worker bitwise contract — the Workers
// knob changes nothing, per configuration — and the f32 configurations must
// land within 10·eps of their f64 counterpart in the A-norm (the f32 chain
// preconditions; it does not limit attainable accuracy). Graph families and
// worker set mirror TestFuzzCrossWorkerEquivalence; this suite adds the two
// new chain axes the bandwidth work introduced.

type precLayoutCfg struct {
	prec    Precision
	reorder bool
}

func (c precLayoutCfg) String() string {
	s := c.prec.String()
	if c.reorder {
		s += "+reorder"
	}
	return s
}

var precLayoutCfgs = []precLayoutCfg{
	{PrecisionF64, false},
	{PrecisionF64, true},
	{PrecisionF32, false},
	{PrecisionF32, true},
}

func TestFuzzPrecisionLayoutEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chain-build sweeps are too heavy for -short")
	}
	sweeps := 5
	if raceDetectorEnabled {
		// Chain builds are ~20x slower under the race detector; two sweeps
		// still cover every configuration while keeping the package inside
		// the CI race budget. The full five run in the non-race suite.
		sweeps = 2
	}
	const eps = 1e-6
	rng := rand.New(rand.NewSource(20260808))
	for sweep := 0; sweep < sweeps; sweep++ {
		spec, g := randomFuzzGraph(rng)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("%02d-%s", sweep, spec), func(t *testing.T) {
			b := make([]float64, g.N)
			brng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := range b {
				b[i] = brng.NormFloat64()
			}
			var f64x []float64
			var f64s *Solver
			for _, cfg := range precLayoutCfgs {
				params := deepChainParams(g)
				params.Seed = seed
				params.Precision = cfg.prec
				params.ReorderLevels = cfg.reorder
				build := func(w int) *Solver {
					s, err := NewWithOptions(g, params, Options{Workers: w}, nil)
					if err != nil {
						t.Fatalf("%s workers=%d: build: %v", cfg, w, err)
					}
					return s
				}
				ref := build(1)
				xRef, stRef := ref.Solve(b, eps)
				if !stRef.Converged {
					t.Fatalf("%s: solve did not converge: %+v", cfg, stRef)
				}
				bs := [][]float64{b, b, b}
				xsRef, _ := ref.SolveBatch(bs, eps)
				// Bitwise across workers, within the configuration: chain
				// construction, gate decisions, and solves all replay.
				for _, w := range []int{2, 4} {
					s := build(w)
					for i := range ref.Chain.Levels {
						lr, lg := &ref.Chain.Levels[i], &s.Chain.Levels[i]
						if lr.ValF32 != lg.ValF32 {
							t.Fatalf("%s workers=%d: level %d gate decision differs", cfg, w, i)
						}
						if (lr.Perm == nil) != (lg.Perm == nil) {
							t.Fatalf("%s workers=%d: level %d layout differs", cfg, w, i)
						}
						for j := range lr.Perm {
							if lr.Perm[j] != lg.Perm[j] {
								t.Fatalf("%s workers=%d: level %d permutation differs at %d", cfg, w, i, j)
							}
						}
					}
					x, st := s.Solve(b, eps)
					if st.Iterations != stRef.Iterations {
						t.Fatalf("%s workers=%d: %d iterations vs %d", cfg, w, st.Iterations, stRef.Iterations)
					}
					for i := range xRef {
						if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
							t.Fatalf("%s workers=%d: solve differs at entry %d", cfg, w, i)
						}
					}
					// Block path too: batch-of-3 must stay bitwise across
					// workers (the permuted/f32 block kernels share the
					// single path's chunk trees).
					xs, _ := s.SolveBatch(bs, eps)
					for c := range xsRef {
						for i := range xsRef[c] {
							if math.Float64bits(xs[c][i]) != math.Float64bits(xsRef[c][i]) {
								t.Fatalf("%s workers=%d: batch col %d differs at entry %d", cfg, w, c, i)
							}
						}
					}
				}
				if cfg.prec == PrecisionF64 && !cfg.reorder {
					f64x, f64s = xRef, ref
					continue
				}
				if d := relANorm(f64s, xRef, f64x); d > 10*eps {
					t.Fatalf("%s: solution %.3e from f64 in the A-norm, want <= %g", cfg, d, 10*eps)
				}
			}
		})
	}
}
