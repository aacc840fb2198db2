package solver

import (
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/wd"
)

// Per-solve accounting and the one workspace pool. SolveStats.Work/Depth
// count one solve — the outer iterations plus every preconditioner
// application, from the chain's schedule — so they do not depend on what
// the Solver did before, on the worker count or on the block a lane rides
// in. Every solve draws its scratch from the chain's single pool.

// solveCountPins are the analytic work and depth of one solve with
// b = e₀ − e_{n−1} at eps 1e-6: the values a fresh recorder charged for one
// such solve before solves counted their own work.
var solveCountPins = []struct {
	name         string
	g            func() *graph.Graph
	iters        int
	work, depth  int64
	skipRaceMode bool
}{
	{"grid2d:96x96", func() *graph.Graph { return gen.Grid2D(96, 96) }, 77, 15544683, 280665, false},
	{"pa:10000:4", func() *graph.Graph { return gen.PreferentialAttachment(10000, 4, 1) }, 86, 57831990, 514366, true},
}

func endsRHS(n int) []float64 {
	b := make([]float64, n)
	b[0], b[n-1] = 1, -1
	return b
}

func TestSolveStatsCountOneSolve(t *testing.T) {
	workers := testWorkers(t)
	for _, pin := range solveCountPins {
		t.Run(pin.name, func(t *testing.T) {
			if pin.skipRaceMode && raceDetectorEnabled {
				t.Skip("chain build too heavy under the race detector")
			}
			g := pin.g()
			var rec wd.Recorder
			s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: workers}, &rec)
			if err != nil {
				t.Fatal(err)
			}
			b := endsRHS(g.N)
			for rep := 0; rep < 2; rep++ {
				_, st := s.Solve(b, 1e-6)
				if st.Iterations != pin.iters || st.Work != pin.work || st.Depth != pin.depth {
					t.Fatalf("solve %d: %d iterations, work %d, depth %d; want %d, %d, %d",
						rep, st.Iterations, st.Work, st.Depth, pin.iters, pin.work, pin.depth)
				}
			}

			// Each lane of a block reports what a single solve of its
			// column costs, however long the other lanes stay live. The
			// zero column converges at once and costs nothing.
			bs := [][]float64{b, randRHS(g.N, 3), make([]float64, g.N)}
			_, sts := s.SolveBatch(bs, 1e-6)
			for c, bc := range bs {
				_, want := s.Solve(bc, 1e-6)
				if sts[c] != want {
					t.Fatalf("lane %d: %+v, single solve %+v", c, sts[c], want)
				}
			}
			if sts[2].Work != 0 || sts[2].Depth != 0 {
				t.Fatalf("zero lane charged work %d depth %d", sts[2].Work, sts[2].Depth)
			}
		})
	}
}

// TestOneWorkspacePool: solves and PrecondApplyIntoW share the chain's one
// pool, so sequential use retains exactly one workspace (chain scratch plus
// outer PCG scratch at width 1), and a built and a restored Solver charge
// the same footprint before their first solve.
func TestOneWorkspacePool(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"levels", gen.Grid2D(20, 20)}, {"no-level", gen.Grid2D(8, 8)}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewWithOptions(tc.g, deepChainParams(tc.g), Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := AssembleSnapshot(s.Snapshot(), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if bm, rm := s.MemoryBytes(), restored.MemoryBytes(); bm != rm {
				t.Fatalf("MemoryBytes before the first solve: built %d, restored %d", bm, rm)
			}
			one := newWorkspace(s.Chain, 1)
			if got, want := s.WorkspaceBytes(), one.bytes(); got != want {
				t.Fatalf("after build the pool holds %d bytes, want one chain workspace %d", got, want)
			}
			one.ensureOuter(s.Lap.N, 1)
			for seed := int64(0); seed < 3; seed++ {
				s.Solve(randRHS(tc.g.N, seed), 1e-8)
			}
			z := make([]float64, tc.g.N)
			s.Chain.PrecondApplyIntoW(1, randRHS(tc.g.N, 9), z)
			if got, want := s.WorkspaceBytes(), one.bytes(); got != want {
				t.Fatalf("WorkspaceBytes %d after sequential use, want one workspace %d", got, want)
			}
			if got, want := s.MemoryBytes(), s.G.MemoryBytes()+s.Chain.MemoryBytes(); got != want {
				t.Fatalf("MemoryBytes %d, want input + chain %d", got, want)
			}
		})
	}
}

// TestLevelZeroRunsNoSweep: the outer PCG iterates on level 0, so
// calibration leaves it without a Chebyshev schedule while every deeper
// level gets one.
func TestLevelZeroRunsNoSweep(t *testing.T) {
	g := gen.Grid2D(24, 24)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := s.Chain.Schedule()
	if len(sched) < 2 {
		t.Fatalf("chain has %d levels, want >= 2", len(sched))
	}
	if l0 := sched[0]; l0.ChebIts != 0 || l0.EigLo != 0 || l0.EigHi != 0 || l0.KappaMeasured != 0 || l0.Calibrated {
		t.Fatalf("level 0 carries a schedule: %+v", l0)
	}
	for _, l := range sched[1:] {
		if l.ChebIts < 1 || !(l.EigLo > 0) || l.EigHi < l.EigLo {
			t.Fatalf("level %d has no usable schedule: %+v", l.Level, l)
		}
	}
	if _, st := s.Solve(randRHS(g.N, 4), 1e-8); !st.Converged {
		t.Fatalf("solve did not converge: %+v", st)
	}
}
