package solver

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/matrix"
)

// Convergence regression wall for the κ-schedule concern: outer PCG
// iteration counts on the fixed testbed graphs are pinned with a tolerance
// band, so a chain-construction or schedule change that silently degrades
// convergence fails CI instead of drifting. cmd/benchsolve records the same
// counts (same specs, seed and RHS stream) in BENCH_solve.json on every CI
// run, giving the trajectory a tracked artifact; keep its spec list and
// this table in sync.
//
// The pins are exact today (iteration counts are bitwise-deterministic
// across worker counts — the equivalence suites lock that); the band only
// buys headroom for deliberate numerical changes, which must update this
// table and note the move in ROADMAP.md.

type convergencePin struct {
	spec string
	// iters is the count measured at pin time; band is the allowed absolute
	// deviation (~10%) before the test fails.
	iters, band int
}

// History: the pre-calibration schedule (assumed κ·ChebSlack intervals,
// ChebBudget 1.5) pinned 175 / 558 / 98. The PR-5 measured-κ calibration
// (Lanczos two-sided bounds, ChebBudget 3) cut them to 105 / 227 / 90 and
// flattened the grid iteration growth (64→128 grid: ×1.67 instead of ×3.3;
// grid2d:128x128 records 175 in BENCH_solve.json). The count-based
// truncation default (sparse min-degree bottom factor, chain stops where a
// direct solve undercuts the cheapest sweep) moved them 105 → 72 / 227 → 201
// / 90 → 90 and the 128×128 grid 175 → 81 (TestConvergenceIterationPinGrid128):
// a shallower chain hands the outer loop an exact solve where it used to get
// a fixed-degree Chebyshev approximation. Exact truncation (calibrate cuts
// the chain bottom-up wherever a direct solve costs no more than the
// counted recursion) moved 201 → 79 and 90 → 78: both chains now stop at
// level 1, where the old floor test kept recursing (grid2d:64x64 builds the
// same chain and stays at 72).
var convergencePins = []convergencePin{
	{spec: "grid2d:64x64", iters: 72, band: 8},
	{spec: "regular:4000:8", iters: 79, band: 8},
	{spec: "pa:4000:4", iters: 78, band: 8},
}

// benchRHS reproduces cmd/benchsolve's right-hand-side stream (seed 1):
// rng seed+7, standard normals, global mean removed.
func benchRHS(n int) []float64 {
	rng := rand.New(rand.NewSource(1 + 7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	matrix.ProjectOutConstant(b)
	return b
}

// testWorkers reads PARLAP_TEST_WORKERS so CI can run the pins on the
// parallel path (workers-4 on the 4-vCPU runner) as well as the default:
// iteration counts are bitwise-deterministic across worker counts, so a
// divergence on the parallel path alone is a parallel-schedule regression.
func testWorkers(t *testing.T) int {
	v := os.Getenv("PARLAP_TEST_WORKERS")
	if v == "" {
		return 0
	}
	w, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("bad PARLAP_TEST_WORKERS %q: %v", v, err)
	}
	return w
}

func TestConvergenceIterationPins(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	const eps = 1e-6 // benchsolve's default target
	workers := testWorkers(t)
	for _, pin := range convergencePins {
		pin := pin
		t.Run(pin.spec, func(t *testing.T) {
			g, err := gen.FromSpec(pin.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: workers}, nil)
			if err != nil {
				t.Fatal(err)
			}
			x, st := s.Solve(benchRHS(g.N), eps)
			if !st.Converged {
				t.Fatalf("testbed solve did not converge: %+v", st)
			}
			if r := s.Residual(x, benchRHS(g.N)); r > 10*eps {
				t.Fatalf("residual %.3e exceeds %g", r, 10*eps)
			}
			lo, hi := pin.iters-pin.band, pin.iters+pin.band
			if st.Iterations < lo || st.Iterations > hi {
				t.Fatalf("outer PCG took %d iterations, pinned to %d±%d — a κ-schedule regression "+
					"(or an improvement: update convergencePins and note it in ROADMAP.md)",
					st.Iterations, pin.iters, pin.band)
			}
			t.Logf("%s: %d iterations (pin %d±%d), residual %.2e",
				pin.spec, st.Iterations, pin.iters, pin.band, st.Residual)
		})
	}
}

// TestConvergencePinAccuracy checks the answer, not just the residual, on
// the pinned graphs whose chains exact truncation changed: the chain's
// solution at eps 1e-6 lies within 10·eps of a reference in the energy
// norm, ‖x − x*‖_A ≤ 10·eps·‖x*‖_A. x* comes from plain CG at eps 1e-12, a
// path that shares no code with the chain.
func TestConvergencePinAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	const eps = 1e-6
	for _, spec := range []string{"regular:4000:8", "pa:4000:4"} {
		t.Run(spec, func(t *testing.T) {
			g, err := gen.FromSpec(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: testWorkers(t)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := benchRHS(g.N)
			x, st := s.Solve(b, eps)
			if !st.Converged {
				t.Fatalf("solve did not converge: %+v", st)
			}
			a := matrix.LaplacianOf(g)
			comp, k := g.ConnectedComponents()
			ref, rst := CG(a, b, comp, k, 1e-12, 10*g.N, nil)
			if !rst.Converged {
				t.Fatalf("reference CG did not converge: %+v", rst)
			}
			diff := make([]float64, g.N)
			matrix.SubIntoW(0, diff, x, ref)
			e, scale := matrix.ANorm(a, diff), matrix.ANorm(a, ref)
			if e > 10*eps*scale {
				t.Fatalf("energy-norm error %.3e > 10·eps·‖x*‖_A = %.3e", e, 10*eps*scale)
			}
			t.Logf("%s: ‖x − x*‖_A / ‖x*‖_A = %.2e", spec, e/scale)
		})
	}
}

// The 128×128 grid pin for the default chain — the iteration-vs-n
// trajectory's next point (64×64 pins 72; ×1.13 growth per 4× vertices),
// promoted from a BENCH_solve.json observation to an enforced wall.
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
