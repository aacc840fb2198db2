package solver

import (
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// Direct-reference correctness: at small n every generator family is checked
// against the direct LDLᵀ pseudo-inverse (matrix.LaplacianFactor, itself
// checked against a dense 256-bit elimination in the matrix package), the
// ground truth the chain preconditioner is supposed to approximate. The
// multi-component cases use right-hand sides with NONZERO per-component
// means — exactly the masked-projection case (c) the segmented reduction
// now handles in parallel: a wrong per-component mean shows up here as a
// solution offset no residual check would catch.

func denseRefGraphs() map[string]*graph.Graph {
	union := func(gs ...*graph.Graph) *graph.Graph {
		n := 0
		var edges []graph.Edge
		for _, g := range gs {
			for _, e := range g.Edges {
				edges = append(edges, graph.Edge{U: e.U + n, V: e.V + n, W: e.W})
			}
			n += g.N
		}
		return graph.FromEdges(n, edges)
	}
	return map[string]*graph.Graph{
		"grid2d":        gen.Grid2D(9, 11),
		"grid3d":        gen.Grid3D(4, 5, 4),
		"torus":         gen.Torus2D(8, 9),
		"path":          gen.Path(90),
		"cycle":         gen.Cycle(85),
		"star":          gen.Star(80),
		"gnp":           gen.GNP(100, 0.08, 3),
		"regular":       gen.RandomRegular(96, 4, 5),
		"pa":            gen.PreferentialAttachment(110, 3, 9),
		"cliques":       gen.PathOfCliques(6, 12),
		"weighted-grid": gen.WithExponentialWeights(gen.Grid2D(8, 8), 6, 2, 7),
		"union-2comp":   union(gen.Grid2D(7, 7), gen.Cycle(40)),
		"union-4comp":   union(gen.Path(30), gen.Star(25), gen.Grid2D(5, 6), gen.PreferentialAttachment(45, 2, 1)),
	}
}

// denseSolve is the reference pseudo-inverse application.
func denseSolve(t *testing.T, g *graph.Graph, b []float64) []float64 {
	t.Helper()
	lap := matrix.LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	lf, err := matrix.NewLaplacianFactorW(0, lap, comp, k)
	if err != nil {
		t.Fatalf("direct factor: %v", err)
	}
	return lf.Solve(b)
}

// offsetRHS draws a random RHS and then shifts each component by a distinct
// nonzero constant, so its per-component means are all nonzero.
func offsetRHS(g *graph.Graph, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	comp, _ := g.ConnectedComponents()
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64() + 2.5*float64(comp[i]+1)
	}
	return b
}

func TestSolveMatchesDenseReference(t *testing.T) {
	const eps = 1e-9
	for name, g := range denseRefGraphs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(g, DefaultChainParams(), nil)
			if err != nil {
				t.Fatal(err)
			}
			b := offsetRHS(g, 0xD15C)
			want := denseSolve(t, g, b)
			x, st := s.Solve(b, eps)
			if !st.Converged {
				t.Fatalf("did not converge: %+v", st)
			}
			if d := relDiff(want, x); d > 1e-6 {
				t.Fatalf("solve diverges from dense reference by %.3e", d)
			}
			// The canonical representative: per-component mean exactly
			// projected out (both sides re-center, so a masked-projection
			// bug in EITHER path breaks this).
			comp, k := g.ConnectedComponents()
			sums := make([]float64, k)
			cnt := make([]float64, k)
			for i, c := range comp {
				sums[c] += x[i]
				cnt[c]++
			}
			for c := range sums {
				if m := math.Abs(sums[c]) / cnt[c]; m > 1e-9 {
					t.Fatalf("component %d of solution has mean %.3e, want ~0", c, m)
				}
			}
		})
	}
}

func TestSolveBatchMatchesDenseReference(t *testing.T) {
	const eps = 1e-9
	const k = 4
	for _, name := range []string{"grid2d", "union-2comp", "union-4comp", "cliques"} {
		g := denseRefGraphs()[name]
		t.Run(name, func(t *testing.T) {
			s, err := New(g, DefaultChainParams(), nil)
			if err != nil {
				t.Fatal(err)
			}
			bs := make([][]float64, k)
			for c := range bs {
				bs[c] = offsetRHS(g, int64(0xBA7C+c))
			}
			xs, sts := s.SolveBatch(bs, eps)
			for c := range xs {
				if !sts[c].Converged {
					t.Fatalf("column %d did not converge: %+v", c, sts[c])
				}
				want := denseSolve(t, g, bs[c])
				if d := relDiff(want, xs[c]); d > 1e-6 {
					t.Fatalf("column %d diverges from dense reference by %.3e", c, d)
				}
			}
		})
	}
}

// TestDenseReferenceSelfConsistency pins the reference itself: L·(L⁺b) must
// reproduce the projected b for every family (a broken dense path would
// silently weaken every comparison above).
func TestDenseReferenceSelfConsistency(t *testing.T) {
	for name, g := range denseRefGraphs() {
		t.Run(name, func(t *testing.T) {
			lap := matrix.LaplacianOf(g)
			comp, k := g.ConnectedComponents()
			b := offsetRHS(g, 0x5E1F)
			x := denseSolve(t, g, b)
			lx := lap.Apply(x)
			pb := matrix.CopyVec(b)
			matrix.ProjectOutConstantMaskedW(0, pb, comp, k)
			num, den := 0.0, 1e-30
			for i := range pb {
				d := lx[i] - pb[i]
				num += d * d
				den += pb[i] * pb[i]
			}
			if r := math.Sqrt(num / den); r > 1e-8 {
				t.Fatalf("%s: ‖L·L⁺b − Pb‖/‖Pb‖ = %.3e", name, r)
			}
		})
	}
}
