package solver

import (
	"fmt"
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

// directCorpus is the differential oracle's input set: the unit and
// exponentially weighted meshes the bench runs, an expander, a
// preferential-attachment graph, the bottleneck families (cliques on a
// path, a barbell), a torus, a grid with weights uniform in 1e-6…1e6, a
// multigraph grid (parallel edges, a zero-weight edge) and a
// two-component union.
func directCorpus(t *testing.T) map[string]*graph.Graph {
	spec := func(s string) *graph.Graph {
		g, err := gen.FromSpec(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	multi := append([]graph.Edge(nil), gen.Grid2D(30, 30).Edges...)
	for i := 0; i < len(multi); i += 7 {
		e := multi[i]
		multi = append(multi, graph.Edge{U: e.V, V: e.U, W: 0.5 + float64(i%5)})
	}
	multi = append(multi, graph.Edge{U: 0, V: 31, W: 0})
	two := append([]graph.Edge(nil), gen.Grid2D(20, 20).Edges...)
	for _, e := range spec("pa:300:3").Edges {
		two = append(two, graph.Edge{U: e.U + 400, V: e.V + 400, W: e.W})
	}
	return map[string]*graph.Graph{
		"grid24":          gen.Grid2D(24, 24),
		"grid32-expw":     gen.WithExponentialWeights(gen.Grid2D(32, 32), 8, 8, 1),
		"grid3d10":        gen.Grid3D(10, 10, 10),
		"grid3d10-expw":   gen.WithExponentialWeights(gen.Grid3D(10, 10, 10), 8, 8, 1),
		"pa1500x4":        spec("pa:1500:4"),
		"regular1000x8":   spec("regular:1000:8"),
		"path-of-cliques": gen.PathOfCliques(10, 40),
		"barbell":         gen.Barbell(30, 60),
		"torus":           gen.Torus2D(30, 30),
		"grid30-spread":   gen.WithUniformWeights(gen.Grid2D(30, 30), 1e-6, 1e6, 3),
		"grid30-multi":    graph.FromEdges(900, multi),
		"two-components":  graph.FromEdges(700, two),
	}
}

// TestSolveMatchesDirect is the differential oracle: every chain solve path
// — a single right-hand side, each lane of a 4-lane block, and a solver
// reassembled from its snapshot, on the default chain and on the deep one —
// lands within ‖x − x*‖_A ≤ 10·eps·‖x*‖_A of x*, the whole-graph sparse
// LDLᵀ solution, an independent code path. The right-hand sides have
// nonzero per-component means, so a wrong projection shows as an offset.
func TestSolveMatchesDirect(t *testing.T) {
	const eps = 1e-8
	for name, g := range directCorpus(t) {
		if raceDetectorEnabled && g.N >= 1000 {
			// Chain builds are ~20x slower under the race detector; the
			// non-race run covers the graphs of 1000 vertices and more.
			continue
		}
		t.Run(name, func(t *testing.T) {
			a := matrix.LaplacianOf(g)
			bs := make([][]float64, 4)
			want := make([][]float64, len(bs))
			for c := range bs {
				bs[c] = offsetRHS(g, int64(0x0AC1+c))
				want[c] = denseSolve(t, g, bs[c])
			}
			worst := 0.0 // largest ‖x − x*‖_A / (eps·‖x*‖_A) seen
			check := func(label string, x, want []float64, st SolveStats) {
				t.Helper()
				if !st.Converged {
					t.Fatalf("%s: did not converge: %+v", label, st)
				}
				diff := make([]float64, g.N)
				matrix.SubIntoW(1, diff, x, want)
				e, scale := matrix.ANorm(a, diff), matrix.ANorm(a, want)
				if e > 10*eps*scale {
					t.Fatalf("%s: ‖x − x*‖_A = %.3e > 10·eps·‖x*‖_A = %.3e", label, e, 10*eps*scale)
				}
				worst = max(worst, e/(eps*scale))
			}
			for _, chain := range []struct {
				name string
				p    ChainParams
			}{{"default", DefaultChainParams()}, {"deep", deepChainParams(g)}} {
				s, err := NewWithOptions(g, chain.p, Options{Workers: 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				x, st := s.SolveOpts(bs[0], eps, Options{Workers: testWorkers(t)})
				check(chain.name+" k=1", x, want[0], st)
				xs, sts := s.SolveBatchOpts(bs, eps, Options{Workers: 1})
				for c := range xs {
					check(fmt.Sprintf("%s block lane %d", chain.name, c), xs[c], want[c], sts[c])
				}
				restored, err := AssembleSnapshot(s.Snapshot(), Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				x, st = restored.Solve(bs[1], eps)
				check(chain.name+" restored", x, want[1], st)
			}
			t.Logf("worst ‖x − x*‖_A = %.2f·eps·‖x*‖_A", worst)
		})
	}
}
