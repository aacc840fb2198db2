package solver

import (
	"math"
	"testing"

	"parlap/internal/gen"
)

// Precision-gate regression wall: PrecisionF32 chains must (a) keep the gate's
// per-level promise — every level kept in float32 measured a κ inside the
// EigSafety envelope of its float64 baseline, level 0 is never converted —
// (b) converge within a pinned iteration band on the testbed (the f32
// counterpart of TestConvergenceIterationPins), and (c) produce solutions
// within 10·eps of the f64 chain's in the A-norm. The pins were measured at
// gate introduction; like the f64 table, deliberate numerical changes update
// them and note the move in ROADMAP.md.

var convergencePinsF32 = []convergencePin{
	{spec: "grid2d:64x64", iters: 110, band: 11},
	{spec: "regular:4000:8", iters: 235, band: 24},
	{spec: "pa:4000:4", iters: 93, band: 9},
	{spec: "grid2d:128x128", iters: 184, band: 18},
}

// buildVariant builds a solver over g with the given precision/layout knobs
// on a depth-pinned chain (deepChainParams): these suites exist to cover the
// level ≥ 1 sweeps the knobs act on.
func buildVariant(t testing.TB, spec string, prec Precision, reorder bool, workers int) *Solver {
	t.Helper()
	g, err := gen.FromSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := deepChainParams(g)
	p.Precision = prec
	p.ReorderLevels = reorder
	s, err := NewWithOptions(g, p, Options{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("%s (prec=%s reorder=%v): build: %v", spec, prec, reorder, err)
	}
	return s
}

// relANorm returns ‖x−y‖_A / ‖y‖_A under the solver's Laplacian.
func relANorm(s *Solver, x, y []float64) float64 {
	n := len(x)
	d := make([]float64, n)
	for i := range d {
		d[i] = x[i] - y[i]
	}
	ad := make([]float64, n)
	ay := make([]float64, n)
	s.Lap.MulVecW(1, d, ad)
	s.Lap.MulVecW(1, y, ay)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		num += d[i] * ad[i]
		den += y[i] * ay[i]
	}
	return math.Sqrt(num / den)
}

func TestF32GateInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	for _, spec := range []string{"grid2d:64x64", "regular:4000:8", "pa:4000:4"} {
		t.Run(spec, func(t *testing.T) {
			s := buildVariant(t, spec, PrecisionF32, false, 0)
			c := s.Chain
			if c.Levels[0].ValF32 || c.Levels[0].Lap.ValuesF32() {
				t.Fatal("level 0 converted to float32 — the gate must exempt the top operator")
			}
			kept := 0
			for i := 1; i < len(c.Levels); i++ {
				lvl := &c.Levels[i]
				if lvl.ValF32 != lvl.Lap.ValuesF32() {
					t.Fatalf("level %d: ValF32=%v but storage f32=%v", i, lvl.ValF32, lvl.Lap.ValuesF32())
				}
				if !lvl.ValF32 {
					continue
				}
				kept++
				// The gate's promise: the κ measured on the REAL converted
				// operator stayed inside the EigSafety envelope of the f64
				// baseline (KappaF64 == 0 means the baseline measurement
				// failed and the gate accepted on the f32 measurement alone).
				if lvl.KappaF64 > 0 && lvl.KappaMeasured > lvl.KappaF64*c.Params.EigSafety {
					t.Fatalf("level %d: f32 κ %.4g exceeds f64 baseline %.4g × safety %.3g",
						i, lvl.KappaMeasured, lvl.KappaF64, c.Params.EigSafety)
				}
				if !lvl.Calibrated {
					t.Fatalf("level %d kept f32 without a successful measurement", i)
				}
			}
			if kept == 0 {
				t.Fatal("gate kept no level in float32 on a well-conditioned testbed graph")
			}
			t.Logf("%s: %d/%d levels kept f32", spec, kept, len(c.Levels))
		})
	}
}

func TestConvergenceIterationPinsF32(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	const eps = 1e-6
	workers := testWorkers(t)
	for _, pin := range convergencePinsF32 {
		pin := pin
		t.Run(pin.spec, func(t *testing.T) {
			if raceDetectorEnabled && pin.spec == "grid2d:128x128" {
				t.Skip("128x128 pin is too heavy under the race detector; covered by the non-race run")
			}
			s := buildVariant(t, pin.spec, PrecisionF32, false, workers)
			b := benchRHS(s.G.N)
			x, st := s.Solve(b, eps)
			if !st.Converged {
				t.Fatalf("f32-chain solve did not converge: %+v", st)
			}
			if r := s.Residual(x, b); r > 10*eps {
				t.Fatalf("residual %.3e exceeds %g", r, 10*eps)
			}
			lo, hi := pin.iters-pin.band, pin.iters+pin.band
			if st.Iterations < lo || st.Iterations > hi {
				t.Fatalf("outer PCG took %d iterations on the f32 chain, pinned to %d±%d — "+
					"a precision-gate or κ-schedule regression (or an improvement: "+
					"update convergencePinsF32 and note it in ROADMAP.md)",
					st.Iterations, pin.iters, pin.band)
			}
			// The f32 chain preconditions; it does not limit attainable
			// accuracy. Its converged solution must sit within 10·eps of the
			// f64 chain's in the energy norm (measured ≤ 0.26·eps at pin time).
			ref := buildVariant(t, pin.spec, PrecisionF64, false, workers)
			xRef, _ := ref.Solve(b, eps)
			if d := relANorm(s, x, xRef); d > 10*eps {
				t.Fatalf("f32 solution is %.3e from the f64 solution in the A-norm, want <= %g", d, 10*eps)
			}
			t.Logf("%s: %d iterations (pin %d±%d), f32 levels %d/%d",
				pin.spec, st.Iterations, pin.iters, pin.band, s.Chain.F32Levels(), s.Chain.Depth())
		})
	}
}

// The 128×128 grid pin for the default chain — the iteration-vs-n
// trajectory's next point (64×64 pins 72; ×1.13 growth per 4× vertices),
// promoted from a BENCH_solve.json observation to an enforced wall alongside
// the layout/precision work that touches every apply kernel.
func TestConvergenceIterationPinGrid128(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	if raceDetectorEnabled {
		t.Skip("128x128 pin is too heavy under the race detector; covered by the non-race run")
	}
	const eps = 1e-6
	g, err := gen.FromSpec("grid2d:128x128", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: testWorkers(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := benchRHS(s.G.N)
	x, st := s.Solve(b, eps)
	if !st.Converged {
		t.Fatalf("solve did not converge: %+v", st)
	}
	if r := s.Residual(x, b); r > 10*eps {
		t.Fatalf("residual %.3e exceeds %g", r, 10*eps)
	}
	const pin, band = 81, 8
	if st.Iterations < pin-band || st.Iterations > pin+band {
		t.Fatalf("outer PCG took %d iterations, pinned to %d±%d (see convergence_test.go)",
			st.Iterations, pin, band)
	}
}

// Reordering relabels the sweep; it must not move iteration counts at all on
// the f64 chain (the schedule is measured through the same operator) and the
// reordered chain must report its layout in the schedule.
func TestReorderScheduleInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	const eps = 1e-6
	for _, spec := range []string{"grid2d:64x64", "pa:4000:4"} {
		t.Run(spec, func(t *testing.T) {
			nat := buildVariant(t, spec, PrecisionF64, false, 0)
			ro := buildVariant(t, spec, PrecisionF64, true, 0)
			if got := ro.Chain.ReorderedLevels(); got != ro.Chain.Depth()-1 {
				t.Fatalf("reordered %d levels, want every sub-top level (%d)", got, ro.Chain.Depth()-1)
			}
			if ro.Chain.Levels[0].Perm != nil {
				t.Fatal("level 0 reordered — the top operator must stay natural")
			}
			b := benchRHS(nat.G.N)
			xN, stN := nat.Solve(b, eps)
			xR, stR := ro.Solve(b, eps)
			// Different within-row summation order: same iteration count up
			// to rounding jitter, solutions equal in the A-norm up to eps.
			if d := stR.Iterations - stN.Iterations; d < -3 || d > 3 {
				t.Fatalf("reorder moved iterations %d -> %d", stN.Iterations, stR.Iterations)
			}
			if d := relANorm(nat, xR, xN); d > 10*eps {
				t.Fatalf("reordered solution %.3e from natural in A-norm, want <= %g", d, 10*eps)
			}
			for _, ls := range ro.Chain.Schedule()[1:] {
				if !ls.Reordered {
					t.Fatalf("schedule does not report level %d as reordered", ls.Level)
				}
			}
		})
	}
}
