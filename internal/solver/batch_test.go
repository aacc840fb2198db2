package solver

import (
	"fmt"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/obs"
)

// The SolveBatch acceptance contract: k batched right-hand sides return
// bitwise-identical vectors to k independent Solve calls (batching shares
// traversals, never arithmetic), while the whole batch drives one
// preconditioner-chain pass per PCG iteration.

func batchGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":          gen.Grid2D(32, 32),
		"path":          gen.Path(900),
		"weighted-grid": gen.WithExponentialWeights(gen.Grid2D(24, 24), 8, 4, 5),
		"pa":            gen.PreferentialAttachment(800, 3, 17),
	}
}

func requireBitwiseVec(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %g vs %g", label, i, got[i], want[i])
		}
	}
}

func TestSolveBatchBitwiseEquivalence(t *testing.T) {
	const eps = 1e-7
	for name, g := range batchGraphs() {
		t.Run(name, func(t *testing.T) {
			s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			const k = 4
			bs := make([][]float64, k)
			for c := range bs {
				bs[c] = randRHS(g.N, int64(100+c))
			}
			xs, sts := s.SolveBatch(bs, eps)
			if len(xs) != k || len(sts) != k {
				t.Fatalf("batch returned %d/%d results, want %d", len(xs), len(sts), k)
			}
			for c := range bs {
				ref, refSt := s.Solve(bs[c], eps)
				requireBitwiseVec(t, fmt.Sprintf("column %d", c), xs[c], ref)
				if sts[c].Iterations != refSt.Iterations {
					t.Fatalf("column %d: batch took %d iterations, single %d",
						c, sts[c].Iterations, refSt.Iterations)
				}
				if sts[c].Converged != refSt.Converged {
					t.Fatalf("column %d: converged mismatch", c)
				}
				if sts[c].Residual != refSt.Residual {
					t.Fatalf("column %d: residual %g vs %g", c, sts[c].Residual, refSt.Residual)
				}
				if !refSt.Converged {
					t.Fatalf("column %d did not converge", c)
				}
			}
		})
	}
}

// TestSolveBatchWorkerEquivalence: the batch path must also be worker-count
// independent (same fixed reduction trees as the single path).
func TestSolveBatchWorkerEquivalence(t *testing.T) {
	g := gen.Grid2D(28, 28)
	const eps = 1e-7
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{randRHS(g.N, 1), randRHS(g.N, 2), randRHS(g.N, 3)}
	ref, _ := s.SolveBatchOpts(bs, eps, Options{Workers: 1})
	for _, w := range []int{0, 2, 4} {
		xs, _ := s.SolveBatchOpts(bs, eps, Options{Workers: w})
		for c := range xs {
			requireBitwiseVec(t, fmt.Sprintf("workers=%d column %d", w, c), xs[c], ref[c])
		}
	}
}

// TestSolveBatchZeroAndMixedRHS: zero columns converge immediately (like the
// single driver) without disturbing their batch-mates.
func TestSolveBatchZeroRHS(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, g.N)
	bs := [][]float64{randRHS(g.N, 5), zero, randRHS(g.N, 6)}
	xs, sts := s.SolveBatch(bs, 1e-7)
	for c, b := range bs {
		ref, refSt := s.Solve(b, 1e-7)
		requireBitwiseVec(t, fmt.Sprintf("column %d", c), xs[c], ref)
		if sts[c].Converged != refSt.Converged || sts[c].Iterations != refSt.Iterations {
			t.Fatalf("column %d stats mismatch: %+v vs %+v", c, sts[c], refSt)
		}
	}
}

// TestSolveBatchSharesChainPasses verifies the amortization claim behind
// SolveBatch: one preconditioner-chain pass per PCG iteration serves the
// whole batch. The chain's PrecondApplies counter increments once per
// top-level apply regardless of batch width, so at Workers:1 (one lane
// group for k = 4) the count consumed by a batched solve must equal the
// iteration count of the slowest column (+1 for the init pass) — NOT k
// times it, which is what k independent solves would cost. At p workers
// the k lanes run as g = max(min(p, k), ⌈k/4⌉) groups, each with its own
// passes, so the bound becomes g·(maxIters+1).
func TestSolveBatchSharesChainPasses(t *testing.T) {
	g := gen.Grid2D(24, 24)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = randRHS(g.N, int64(200+c))
	}
	for _, w := range []int{1, 2, 4} {
		before := s.Chain.PrecondApplies()
		_, sts := s.SolveBatchOpts(bs, 1e-7, Options{Workers: w})
		passes := int(s.Chain.PrecondApplies() - before)
		maxIters, sumIters := 0, 0
		for c := range sts {
			if !sts[c].Converged {
				t.Fatalf("workers=%d: column %d did not converge", w, c)
			}
			maxIters = max(maxIters, sts[c].Iterations)
			sumIters += sts[c].Iterations
		}
		// Init pass + one pass per iteration that entered the precond step.
		// Converging columns skip the precond of their final iteration, so
		// a group's pass count is at most its slowest column's iterations
		// (whose final iteration contributes none) + 1 for init.
		groups := max(min(w, k), (k+maxGroupLanes-1)/maxGroupLanes)
		if passes > groups*(maxIters+1) {
			t.Fatalf("workers=%d: batch used %d chain passes for %d groups of max %d iterations — not shared within a group",
				w, passes, groups, maxIters)
		}
		if groups == 1 && passes >= sumIters {
			t.Fatalf("batch used %d chain passes vs %d summed column iterations — no amortization", passes, sumIters)
		}
	}
}

// TestSolveBlockLaneGroups: a k-lane block solve splits into contiguous
// lane groups (laneGroups; TestLaneGroupSplit pins the split) and runs a
// 3-lane group as a padded 4-wide block: at Workers 1 k = 3 is one padded
// group, k = 5 groups of 4 and 1 and k = 8 two groups of 4, one after
// another; at Workers 2 and 4 the groups, sized within one of each other,
// run concurrently. Every lane — a zero right-hand side
// included — and its SolveStats must be bitwise what a Workers:1 solve of
// that column alone returns, and the summed trace must still partition as
// OuterNS ⊇ PrecondNS ⊇ stages.
func TestSolveBlockLaneGroups(t *testing.T) {
	g := gen.PreferentialAttachment(800, 3, 17)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-7
	seq := Options{Workers: 1}
	for _, k := range []int{3, 5, 8} {
		bs := make([][]float64, k)
		for c := range bs {
			bs[c] = randRHS(g.N, int64(300+c))
		}
		bs[1] = make([]float64, g.N)
		var rhs matrix.Block
		rhs.Reshape(g.N, k)
		for c, b := range bs {
			rhs.SetCol(c, b)
		}
		for _, w := range []int{1, 2, 4} {
			var out matrix.Block
			var tr obs.SolveTrace
			sts := s.SolveBlockTraced(&rhs, &out, eps, Options{Workers: w}, &tr, nil)
			x := make([]float64, g.N)
			for c, b := range bs {
				ref, refSt := s.SolveOpts(b, eps, seq)
				out.ColInto(c, x)
				label := fmt.Sprintf("k=%d workers=%d lane %d", k, w, c)
				requireBitwiseVec(t, label, x, ref)
				if sts[c] != refSt {
					t.Fatalf("%s: stats %+v, single solve %+v", label, sts[c], refSt)
				}
			}
			stages := tr.StageNS(obs.StageCheb) + tr.StageNS(obs.StageForward) +
				tr.StageNS(obs.StageBack) + tr.StageNS(obs.StageBottom)
			if tr.OuterNS < tr.PrecondNS || tr.PrecondNS < stages || stages <= 0 || tr.Levels != len(s.Chain.Levels) {
				t.Fatalf("k=%d workers=%d: summed trace does not partition: %+v", k, w, tr)
			}
		}
	}
}

// TestLaneGroupSplit pins how a k-lane block solve splits its lanes: at
// Workers 1 it fills 4-lane groups first (k = 5 runs as 4 + 1, k = 6 as
// 4 + 2, k = 7 as 4 + 3 with the 3 padded), and at p ≥ 2 it runs
// max(min(p, k), ⌈k/4⌉) groups whose sizes differ by at most one. Then it
// solves k = 5 and k = 6 at Workers 1 and requires every lane to be
// bitwise what a solve of its column alone returns.
func TestLaneGroupSplit(t *testing.T) {
	for _, tc := range []struct {
		p, k int
		want string
	}{
		{1, 1, "[0 1)"},
		{1, 3, "[0 3)"},
		{1, 4, "[0 4)"},
		{1, 5, "[0 4) [4 5)"},
		{1, 6, "[0 4) [4 6)"},
		{1, 7, "[0 4) [4 7)"},
		{1, 9, "[0 4) [4 8) [8 9)"},
		{2, 1, "[0 1)"},
		{2, 5, "[0 2) [2 5)"},
		{2, 6, "[0 3) [3 6)"},
		{2, 9, "[0 3) [3 6) [6 9)"},
		{4, 3, "[0 1) [1 2) [2 3)"},
		{4, 8, "[0 2) [2 4) [4 6) [6 8)"},
	} {
		groups := laneGroups(tc.p, tc.k)
		got := ""
		for g := 0; g < groups; g++ {
			lo, hi := laneGroup(tc.p, tc.k, groups, g)
			if g > 0 {
				got += " "
			}
			got += fmt.Sprintf("[%d %d)", lo, hi)
		}
		if got != tc.want {
			t.Errorf("p=%d k=%d: groups %s, want %s", tc.p, tc.k, got, tc.want)
		}
	}

	g := gen.PreferentialAttachment(600, 3, 23)
	s, err := NewWithOptions(g, deepChainParams(g), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-7
	seq := Options{Workers: 1}
	for _, k := range []int{5, 6} {
		bs := make([][]float64, k)
		var rhs, out matrix.Block
		rhs.Reshape(g.N, k)
		for c := range bs {
			bs[c] = randRHS(g.N, int64(500+c))
			rhs.SetCol(c, bs[c])
		}
		sts := s.SolveBlockTraced(&rhs, &out, eps, seq, nil, nil)
		x := make([]float64, g.N)
		for c, b := range bs {
			ref, refSt := s.SolveOpts(b, eps, seq)
			out.ColInto(c, x)
			label := fmt.Sprintf("k=%d lane %d", k, c)
			requireBitwiseVec(t, label, x, ref)
			if sts[c] != refSt {
				t.Fatalf("%s: stats %+v, single solve %+v", label, sts[c], refSt)
			}
		}
	}
}

// TestPrecondApplyBatchBitwise pins a padded pass of the apply recursion —
// three lanes at width 4, lane 3 all zero — to width-1 passes
// (PrecondApplyIntoW), column by column, and requires the pad to come out
// exactly zero: the replays, the Chebyshev sweeps, the projections and the
// bottom LDLᵀ solve all keep a zero lane zero. The bottom-solve counter
// counts the three live lanes only.
func TestPrecondApplyBatchBitwise(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Grid2D(20, 20), 6, 3, 7)
	s, err := New(g, deepChainParams(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Chain.Depth() < 2 {
		t.Fatalf("chain has %d levels, want >= 2 so a Chebyshev sweep runs", s.Chain.Depth())
	}
	rs := [][]float64{randRHS(g.N, 11), randRHS(g.N, 12), randRHS(g.N, 13)}
	var rb matrix.Block
	rb.Reshape(g.N, 4)
	rb.Zero()
	for c, r := range rs {
		rb.SetCol(c, r)
	}
	b0 := s.Chain.BottomSolves()
	zs := s.Chain.applyHTopBlock(0, &rb, len(rs), newWorkspace(s.Chain, 4))
	padded := s.Chain.BottomSolves() - b0
	z := make([]float64, g.N)
	b0 = s.Chain.BottomSolves()
	for c := range rs {
		zs.ColInto(c, z)
		requireBitwiseVec(t, fmt.Sprintf("column %d", c), z, precondApply(s.Chain, rs[c]))
	}
	if single := s.Chain.BottomSolves() - b0; padded != single {
		t.Fatalf("padded pass counted %d bottom solves, three single passes %d", padded, single)
	}
	zs.ColInto(3, z)
	requireBitwiseVec(t, "pad lane", z, make([]float64, g.N))
}
