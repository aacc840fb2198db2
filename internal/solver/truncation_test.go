package solver

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/matrix"
)

// The count-based truncation rule (ChainParams.BottomSizeEdges ≤ 0): where
// the default chain stops, that the record says why, and that the explicit
// size rule and the memory bound still mean what they did.

func buildSpec(t *testing.T, spec string, p ChainParams, workers int) *Chain {
	t.Helper()
	g, err := gen.FromSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildChainOpts(g, p, Options{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return c
}

func TestTruncationGridStopsAtLevelOne(t *testing.T) {
	c := buildSpec(t, "grid2d:96x96", DefaultChainParams(), 1)
	if len(c.Levels) != 1 {
		t.Fatalf("96x96 grid built %d levels (%v), want 1", len(c.Levels), c.EdgeCounts())
	}
	bi := c.BottomInfo()
	if bi.Level != 1 || bi.N != c.BottomG.N || bi.NNZL != c.Bottom.NNZ() {
		t.Fatalf("bottom info %+v does not describe the bottom", bi)
	}
	if bi.Probe == nil || bi.Probe.Abandoned || bi.Probe.SolveOps > bi.Probe.SweepOps {
		t.Fatalf("accepting probe %+v does not satisfy the rule", bi.Probe)
	}
	if bi.Probe.SolveOps != 2*int64(bi.NNZL) {
		t.Fatalf("probe counted %d solve ops, factor has nnz(L)=%d", bi.Probe.SolveOps, bi.NNZL)
	}
	lapNNZ := int64(bi.N + 2*bi.M)
	if want := int64(c.Params.MinChebIts) * lapNNZ; bi.Probe.SweepOps != want {
		t.Fatalf("probe sweep ops %d, want MinChebIts*nnz(Lap) = %d", bi.Probe.SweepOps, want)
	}
	if !strings.Contains(bi.Stop, "level 1") || !strings.Contains(bi.Stop, "nnz(L)") {
		t.Fatalf("stop reason %q does not name the level and the rule", bi.Stop)
	}
	// Far under the dense triangle MaxBottomVertices exists to forbid.
	if dense := bi.N * bi.N / 2; bi.NNZL*20 > dense {
		t.Fatalf("nnz(L) = %d is not sparse next to the %d-entry dense triangle", bi.NNZL, dense)
	}
}

// An expander's level-1 fill cannot fit a tight MaxBottomVertices bound, so
// the chain recurses: every level it recurses through carries the probe
// that lost, and the build still ends on a level the rule accepted. (At the
// default bound regular:4000:8 is cut at level 1, where a direct solve costs
// 3× less than the counted recursion; TestTruncationCutInvariants covers it.)
func TestTruncationExpanderRecursesDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	p := DefaultChainParams()
	p.MaxBottomVertices = 150 // nnz(L) ≤ 11 250
	c := buildSpec(t, "regular:4000:8", p, 1)
	if len(c.Levels) < 2 {
		t.Fatalf("expander stopped at level %d (%v); min-degree fill at level 1 cannot fit the bound", len(c.Levels), c.EdgeCounts())
	}
	sched := c.Schedule()
	if sched[0].Probe != nil {
		t.Fatal("level 0 carries a probe; the rule starts at level 1")
	}
	for _, ls := range sched[1:] {
		pr := ls.Probe
		if pr == nil {
			t.Fatalf("level %d was recursed through without a recorded probe", ls.Level)
		}
		if !pr.Abandoned && pr.SolveOps <= pr.SweepOps {
			t.Fatalf("level %d probe %+v satisfies the rule but the chain kept going", ls.Level, pr)
		}
		// A failed probe costs O(budget): it stops within one column of it.
		if pr.Abandoned && pr.SolveOps > pr.SweepOps+2*int64(ls.N) {
			t.Fatalf("level %d probe ran to %d ops, budget %d", ls.Level, pr.SolveOps, pr.SweepOps)
		}
	}
	if len(c.Probes) < len(c.Levels)-1 {
		t.Fatalf("%d probes for %d levels", len(c.Probes), len(c.Levels))
	}
}

// TestTruncationCutInvariants checks calibrate's exact truncation on a
// corpus of count-based chains. Every kept level i ≥ 1 carries the exact
// probe, budgeted at the final chain's recursion cost solveCost(i) − kept_i,
// and that probe lost (its analysis ran past the budget). Every bottom the
// rule accepted costs no more to solve directly than the recursion it
// replaced; for a bottom-up cut the Stop line's direct side is the final
// chain's own bottom-solve cost, and the workspace pool counts only the
// final chain.
func TestTruncationCutInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	cases := []struct {
		spec string
		mbv  int // MaxBottomVertices; 0 keeps the default
	}{
		{"regular:4000:8", 0},
		{"pa:4000:4", 0},
		{"pa:10000:4", 0},
		{"grid3d:16x16x16", 0},
		{"grid2d:64x64", 0},
		{"regular:2000:8", 150}, // level 1 kept, cut at level 2
		{"regular:4000:8", 250}, // levels 1 and 2 kept, bottom accepted on the way down
	}
	var cuts, kept, accepted int
	for _, tc := range cases {
		p := DefaultChainParams()
		if tc.mbv > 0 {
			p.MaxBottomVertices = tc.mbv
		}
		c := buildSpec(t, tc.spec, p, 1)
		// A cut restarts the workspace pool: it holds one width-1
		// workspace of the final chain, not one shaped for dropped levels.
		if got, want := c.ws.PeakBytes(), newWorkspace(c, 1).bytes(); got != want {
			t.Fatalf("%s: workspace pool peak %d bytes, a workspace of the final chain is %d", tc.spec, got, want)
		}
		maxFill := int64(p.MaxBottomVertices) * int64(p.MaxBottomVertices) / 2
		for i := 1; i < len(c.Levels); i++ {
			kept++
			lvl := &c.Levels[i]
			pr := c.probeAt(i)
			recur, _ := c.solveCost(i)
			if pr == nil || pr.SweepOps != recur-int64(lvl.G.N-lvl.NumComp) {
				t.Fatalf("%s: kept level %d probe %+v is not budgeted at its recursion cost %d", tc.spec, i, pr, recur)
			}
			if !pr.Abandoned || pr.SolveOps/2 <= min(pr.SweepOps/2, maxFill) {
				t.Fatalf("%s: kept level %d probe %+v did not lose to the recursion or the fill bound", tc.spec, i, pr)
			}
		}
		bi := c.BottomInfo()
		pr := bi.Probe
		if pr == nil || pr.Abandoned {
			t.Fatalf("%s: bottom %+v was not accepted by the count rule", tc.spec, bi)
		}
		if pr.SolveOps != 2*int64(bi.NNZL) || pr.SolveOps > pr.SweepOps {
			t.Fatalf("%s: accepting probe %+v does not show a direct solve (nnz(L)=%d) within the recursion", tc.spec, pr, bi.NNZL)
		}
		if !strings.Contains(c.Stop, "cut bottom-up") {
			accepted++
			if want := int64(p.MinChebIts) * int64(bi.N+2*bi.M); pr.SweepOps != want {
				t.Fatalf("%s: way-down probe %+v, want the sweep floor %d", tc.spec, pr, want)
			}
			continue
		}
		cuts++
		var level int
		var direct, recursion int64
		if _, err := fmt.Sscanf(c.Stop, "level %d: direct solve 2*nnz(L)+kept=%d <= recursion %d ops", &level, &direct, &recursion); err != nil {
			t.Fatalf("%s: stop %q: %v", tc.spec, c.Stop, err)
		}
		bottomCost, _ := c.solveCost(len(c.Levels))
		g := int64(c.Bottom.GroundedLen())
		if level != len(c.Levels) || direct != bottomCost || direct != pr.SolveOps+g || recursion != pr.SweepOps+g || direct > recursion {
			t.Fatalf("%s: stop %q disagrees with the bottom (level %d, solve cost %d) or its probe %+v", tc.spec, c.Stop, len(c.Levels), bottomCost, pr)
		}
	}
	if cuts == 0 || kept == 0 || accepted == 0 {
		t.Fatalf("corpus covers %d cuts, %d kept levels, %d bottoms accepted on the way down; want each", cuts, kept, accepted)
	}
}

func TestTruncationExplicitBottomSizeEdgesHonoured(t *testing.T) {
	p := DefaultChainParams()
	p.BottomSizeEdges = 300
	c := buildSpec(t, "grid2d:64x64", p, 1)
	if len(c.Probes) != 0 || c.BottomInfo().Probe != nil {
		t.Fatalf("explicit BottomSizeEdges ran the count rule: %+v", c.Probes)
	}
	ec := c.EdgeCounts()
	if len(c.Levels) < 2 {
		t.Fatalf("explicit size rule built %d levels (%v), want a deep chain", len(c.Levels), ec)
	}
	for i, m := range ec[:len(ec)-1] {
		if m <= p.BottomSizeEdges {
			t.Fatalf("level %d has %d edges <= BottomSizeEdges %d but was recursed through (%v)", i, m, p.BottomSizeEdges, ec)
		}
	}
	if m := ec[len(ec)-1]; m > p.BottomSizeEdges {
		t.Fatalf("bottom has %d edges > BottomSizeEdges %d (%v)", m, p.BottomSizeEdges, ec)
	}
	if !strings.Contains(c.Stop, "BottomSizeEdges") {
		t.Fatalf("stop reason %q does not name the size rule", c.Stop)
	}
}

func TestTruncationOverBudgetBottomIsBuildError(t *testing.T) {
	g := gen.RandomRegular(1200, 8, 1)
	p := DefaultChainParams()
	p.MaxLevels = 1
	p.MaxBottomVertices = 60 // nnz(L) <= 1800: an expander's level 1 cannot fit
	_, err := BuildChainOpts(g, p, Options{Workers: 1}, nil)
	if err == nil {
		t.Fatal("bottom over the MaxBottomVertices fill bound built without error")
	}
	if !strings.Contains(err.Error(), "MaxBottomVertices") {
		t.Fatalf("error %q does not name the bound", err)
	}
}

func TestTruncationPathEmptyBottom(t *testing.T) {
	c := buildSpec(t, "path:2000", DefaultChainParams(), 1)
	if len(c.Levels) != 1 || c.BottomG.N != 0 || c.Bottom.NNZ() != 0 {
		t.Fatalf("path chain: %d levels, bottom n=%d nnz(L)=%d; want 1 level over an empty bottom",
			len(c.Levels), c.BottomG.N, c.Bottom.NNZ())
	}
	g, _ := gen.FromSpec("path:2000", 1)
	s, err := New(g, DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(g.N, 3)
	x, st := s.Solve(b, 1e-8)
	if !st.Converged || st.Iterations > 2 {
		t.Fatalf("exact chain took %d iterations (converged=%v)", st.Iterations, st.Converged)
	}
	if r := s.Residual(x, b); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
}

// The decision reads operation counts only, so the truncation record, the
// elimination order and the factor are identical for every worker count,
// whether the way-down probe or a bottom-up cut (regular:1500:8) ends the
// chain.
func TestTruncationWorkerEquivalence(t *testing.T) {
	for _, spec := range []string{"grid2d:40x40", "pa:1500:3", "regular:1500:8"} {
		ref := buildSpec(t, spec, DefaultChainParams(), 1)
		for _, w := range []int{2, 4} {
			c := buildSpec(t, spec, DefaultChainParams(), w)
			if !reflect.DeepEqual(c.Probes, ref.Probes) || c.Stop != ref.Stop {
				t.Fatalf("%s workers-%d: truncation record differs: %+v %q vs %+v %q", spec, w, c.Probes, c.Stop, ref.Probes, ref.Stop)
			}
			if !reflect.DeepEqual(c.Bottom.Order(), ref.Bottom.Order()) {
				t.Fatalf("%s workers-%d: bottom elimination order differs", spec, w)
			}
			if !reflect.DeepEqual(c.Bottom.Factor(), ref.Bottom.Factor()) {
				t.Fatalf("%s workers-%d: bottom factor bits differ", spec, w)
			}
		}
	}
}

// BenchmarkAnalyzeLaplacian times the bottom factor's symbolic analysis on
// two level-1 graphs (level 0's reduced graph, whatever the truncation then
// decides): pa:10000:4's, analyzed at the MaxBottomVertices fill bound the
// build gives a probe at most, and grid 256²'s, analyzed to completion.
func BenchmarkAnalyzeLaplacian(b *testing.B) {
	p := DefaultChainParams()
	cases := []struct {
		spec    string
		maxFill int64
	}{
		{"pa:10000:4", int64(p.MaxBottomVertices) * int64(p.MaxBottomVertices) / 2},
		{"grid2d:256x256", math.MaxInt64},
	}
	for _, tc := range cases {
		g, err := gen.FromSpec(tc.spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		c, err := BuildChainOpts(g, p, Options{Workers: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		lvl := c.Levels[0].Elim.Reduced
		lap := matrix.LaplacianOf(lvl)
		comp, k := lvl.ConnectedComponents()
		b.Run(tc.spec+"/level1", func(b *testing.B) {
			var fill int64
			for i := 0; i < b.N; i++ {
				_, fill, err = matrix.AnalyzeLaplacian(lap, comp, k, tc.maxFill)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(lvl.N), "n")
			b.ReportMetric(float64(fill), "fill")
		})
	}
}
