package solver

import (
	"reflect"
	"strings"
	"testing"

	"parlap/internal/gen"
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

func TestTruncationExpanderRecursesDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed chain builds are too heavy for -short")
	}
	c := buildSpec(t, "regular:4000:8", DefaultChainParams(), 1)
	if len(c.Levels) < 2 {
		t.Fatalf("expander stopped at level %d (%v); min-degree fill at level 1 cannot beat a sweep", len(c.Levels), c.EdgeCounts())
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
// elimination order and the factor are identical for every worker count.
func TestTruncationWorkerEquivalence(t *testing.T) {
	for _, spec := range []string{"grid2d:40x40", "pa:1500:3"} {
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
