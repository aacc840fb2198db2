package solver

import (
	"math"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
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

// TestSolveWorkNearLinear is Theorem 1.1's work bound, m·log^{O(1)} n ·
// log(1/ε), on the counted work of one solve. On unit grids 32²–128² at
// ε = 1e-8 work/m measures 747/987/1186, that is c = work/(m·log₂n·digits)
// = 9.3/10.3/10.6; the pin asks for c ≤ 12, a 1.13× margin at 128². The
// claim does not hold at scale: c rises with n, and ROADMAP measurement
// (A) has solve time per edge growing 44× from 128² to 512², where the
// chain deepens (item 1), so only sizes below that cliff are asserted.
// The counts do not depend on the worker count.
func TestSolveWorkNearLinear(t *testing.T) {
	workers := testWorkers(t)
	const eps, c = 1e-8, 12.0
	digits := -math.Log10(eps)
	for _, side := range []int{32, 64, 128} {
		if side == 128 && raceDetectorEnabled {
			t.Skip("128² chain build too heavy under the race detector")
		}
		g := gen.Grid2D(side, side)
		s, err := NewWithOptions(g, DefaultChainParams(), Options{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, st := s.Solve(randRHS(g.N, 1), eps)
		bound := c * float64(g.M()) * math.Log2(float64(g.N)) * digits
		if !st.Converged || float64(st.Work) > bound {
			t.Fatalf("%d² grid: work %d (converged %v) > %.0f·m·log₂n·digits = %.0f",
				side, st.Work, st.Converged, c, bound)
		}
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

// TestWorkspacePoolChargesGroupGrowth: lane groups that run at once hold
// their workspaces at once, and each grows (to its width, and by the outer
// PCG scratch) while checked out. The pool charges that growth when it
// happens, so two groups held together — 2 lanes, and 3 lanes padded to 4
// — leave the sum of both grown workspaces as the peak, not one of them
// plus the other's footprint at checkout. A Workers:2 solve of those two
// groups returns each workspace as its group finishes, so its peak is one
// 4-wide workspace or both, as the groups happened to overlap.
func TestWorkspacePoolChargesGroupGrowth(t *testing.T) {
	g := gen.Grid2D(20, 20)
	build := func() *Solver {
		s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	widths := []int{2, 4}
	s := build()
	var sizes []int64
	for _, w := range widths {
		ws := newWorkspace(s.Chain, w)
		ws.ensureOuter(s.Lap.N, w)
		sizes = append(sizes, ws.bytes())
	}
	sum := sizes[0] + sizes[1]
	var held []*workspace
	for _, w := range widths {
		ws := s.Chain.ws.get(s.Chain, w)
		ws.ensureOuter(s.Lap.N, w)
		held = append(held, ws)
	}
	if got := s.WorkspaceBytes(); got != sum {
		t.Fatalf("WorkspaceBytes %d with both groups' workspaces out, want their sum %d", got, sum)
	}
	for _, ws := range held {
		s.Chain.ws.put(ws)
	}

	s = build()
	const k = 5 // groups of 2 and 3 lanes at Workers:2, the 3 padded to 4
	var rhs, out matrix.Block
	rhs.Reshape(g.N, k)
	for c := 0; c < k; c++ {
		rhs.SetCol(c, randRHS(g.N, int64(40+c)))
	}
	s.SolveBlockTraced(&rhs, &out, 1e-8, Options{Workers: 2}, nil, nil)
	if got := s.WorkspaceBytes(); got < sizes[1] || got > sum {
		t.Fatalf("WorkspaceBytes %d after a 2-group solve, want between one 4-wide workspace %d and both %d",
			got, sizes[1], sum)
	}
}

// TestCountersCountSolvesOnly: calibration's build-time applications are
// not counted, so a built chain and its restored copy both report zero
// bottom solves and preconditioner applications before any solve, and the
// same counts after one identical solve.
func TestCountersCountSolvesOnly(t *testing.T) {
	g := gen.Grid2D(24, 24)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Chain.Depth() < 2 {
		t.Fatalf("chain has %d levels, want >= 2 so calibration runs", s.Chain.Depth())
	}
	restored, err := AssembleSnapshot(s.Snapshot(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Chain{s.Chain, restored.Chain} {
		if bs, pa := c.BottomSolves(), c.PrecondApplies(); bs != 0 || pa != 0 {
			t.Fatalf("before any solve: %d bottom solves, %d applies; want 0, 0", bs, pa)
		}
	}
	b := randRHS(g.N, 5)
	s.Solve(b, 1e-8)
	restored.Solve(b, 1e-8)
	bs, pa := s.Chain.BottomSolves(), s.Chain.PrecondApplies()
	if bs == 0 || pa == 0 {
		t.Fatalf("one solve counted %d bottom solves, %d applies", bs, pa)
	}
	if rbs, rpa := restored.Chain.BottomSolves(), restored.Chain.PrecondApplies(); rbs != bs || rpa != pa {
		t.Fatalf("after one solve: built %d/%d, restored %d/%d", bs, pa, rbs, rpa)
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
