package lowstretch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/wd"
)

// checkSpanningForest verifies that treeEdges form a spanning forest of g:
// acyclic and connecting every connected component.
func checkSpanningForest(t *testing.T, g *graph.Graph, treeEdges []int) {
	t.Helper()
	uf := graph.NewUnionFind(g.N)
	for _, id := range treeEdges {
		e := g.Edges[id]
		if !uf.Union(e.U, e.V) {
			t.Fatalf("tree edge %d (%d,%d) creates a cycle", id, e.U, e.V)
		}
	}
	_, want := g.ConnectedComponents()
	if uf.Count() != want {
		t.Fatalf("forest has %d components, graph has %d", uf.Count(), want)
	}
}

func TestAKPWSpanningOnGrid(t *testing.T) {
	g := gen.Grid2D(20, 20)
	rng := rand.New(rand.NewSource(1))
	tree, stats := AKPW(g, PracticalParams(), rng, nil)
	checkSpanningForest(t, g, tree)
	if len(tree) != g.N-1 {
		t.Fatalf("tree has %d edges, want %d", len(tree), g.N-1)
	}
	if stats.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
}

func TestAKPWWeighted(t *testing.T) {
	g := gen.WithExponentialWeights(gen.Grid2D(16, 16), 32, 4, 2)
	rng := rand.New(rand.NewSource(3))
	tree, stats := AKPW(g, PracticalParams(), rng, nil)
	checkSpanningForest(t, g, tree)
	if stats.MaxClass < 2 {
		t.Fatalf("expected multiple weight classes, got %d", stats.MaxClass)
	}
}

func TestAKPWDisconnected(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i+1 < 8; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
		edges = append(edges, graph.Edge{U: 10 + i, V: 10 + i + 1, W: 1})
	}
	g := graph.FromEdges(20, edges)
	rng := rand.New(rand.NewSource(4))
	tree, _ := AKPW(g, PracticalParams(), rng, nil)
	checkSpanningForest(t, g, tree)
}

// TestAKPWStretchBounded is Theorem 5.1: the AKPW tree's average stretch
// grows sub-polynomially in n. On unit grids 16²–64² it measures
// 5.4/6.9/10.3, about 0.7–0.9·log₂n; the pin asks for 1.25·log₂n, a 1.2×
// margin at 64². The code departs from the paper on weighted inputs: it
// runs a fixed z = 32 where the theorem's z grows with n, and on the same
// grids with 4 exponential weight classes the average reads 17/46/182,
// growing like √n, so no bound is asserted there.
func TestAKPWStretchBounded(t *testing.T) {
	for _, side := range []int{16, 32, 64} {
		g := gen.Grid2D(side, side)
		tree, _ := AKPW(g, PracticalParams(), rand.New(rand.NewSource(1)), nil)
		_, st := TreeStretch(g, tree)
		if bound := 1.25 * math.Log2(float64(g.N)); st.Average > bound {
			t.Fatalf("%d² grid: average stretch %.2f > 1.25·log₂n = %.1f", side, st.Average, bound)
		}
	}
}

func TestAKPWWorkDepth(t *testing.T) {
	g := gen.Grid2D(24, 24)
	rng := rand.New(rand.NewSource(6))
	var rec wd.Recorder
	_, stats := AKPW(g, PracticalParams(), rng, &rec)
	if stats.Work == 0 || stats.Depth == 0 {
		t.Fatalf("work/depth not recorded: %+v", stats)
	}
}

func TestTreeIndexDistOnPath(t *testing.T) {
	g := gen.WithUniformWeights(gen.Path(10), 1, 2, 7)
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	ti := NewTreeIndex(g, ids)
	// Distance 0..9 equals sum of weights.
	want := 0.0
	for i := 0; i < 9; i++ {
		want += g.Edges[i].W
	}
	if d := ti.Dist(0, 9); math.Abs(d-want) > 1e-12 {
		t.Fatalf("Dist(0,9) = %v, want %v", d, want)
	}
	if d := ti.Dist(3, 3); d != 0 {
		t.Fatalf("Dist(3,3) = %v", d)
	}
}

func TestTreeIndexLCA(t *testing.T) {
	// Star: LCA of any two leaves is the center.
	g := gen.Star(6)
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	ti := NewTreeIndex(g, ids)
	if l := ti.LCA(1, 2); l != 0 {
		t.Fatalf("LCA(1,2) = %d, want 0", l)
	}
	if l := ti.LCA(0, 3); l != 0 {
		t.Fatalf("LCA(0,3) = %d, want 0", l)
	}
}

func TestTreeIndexAcrossComponents(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	ti := NewTreeIndex(g, []int{0, 1})
	if l := ti.LCA(0, 2); l != -1 {
		t.Fatalf("cross-component LCA = %d, want -1", l)
	}
	if d := ti.Dist(0, 3); !math.IsInf(d, 1) {
		t.Fatalf("cross-component Dist = %v, want +Inf", d)
	}
}

func TestTreeDistMatchesDijkstraProperty(t *testing.T) {
	// For random spanning trees of random graphs, TreeIndex.Dist must equal
	// Dijkstra on the tree-only subgraph.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.WithUniformWeights(gen.GNP(60, 0.08, seed), 0.5, 3, seed)
		tree := g.MSTKruskal()
		ti := NewTreeIndex(g, tree)
		h := subgraphOf(g, tree)
		for trial := 0; trial < 10; trial++ {
			u, v := rng.Intn(g.N), rng.Intn(g.N)
			want := h.DijkstraTo(u, v)
			got := ti.Dist(u, v)
			if math.IsInf(want, 1) != math.IsInf(got, 1) {
				return false
			}
			if !math.IsInf(want, 1) && math.Abs(want-got) > 1e-9*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeStretchIdentityOnTree(t *testing.T) {
	// Stretch of tree edges w.r.t. the tree itself is exactly 1.
	g := gen.WithUniformWeights(gen.Path(50), 1, 5, 9)
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	str, st := TreeStretch(g, ids)
	for i, s := range str {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("tree edge %d has stretch %v", i, s)
		}
	}
	if math.Abs(st.Average-1) > 1e-12 {
		t.Fatalf("average = %v", st.Average)
	}
}

func TestTreeStretchCycle(t *testing.T) {
	// Unit cycle of length n, tree = path: the chord has stretch n−1.
	n := 12
	g := gen.Cycle(n)
	var tree []int
	for i := 0; i < n; i++ {
		e := g.Edges[i]
		if !(e.U == n-1 && e.V == 0) && !(e.U == 0 && e.V == n-1) {
			tree = append(tree, i)
		}
	}
	_, st := TreeStretch(g, tree)
	if st.Max != float64(n-1) {
		t.Fatalf("max stretch = %v, want %d", st.Max, n-1)
	}
}

func TestSubgraphStretchExactMatchesTreeStretch(t *testing.T) {
	g := gen.WithUniformWeights(gen.Grid2D(8, 8), 1, 3, 11)
	tree := g.MSTKruskal()
	strT, _ := TreeStretch(g, tree)
	strS, _ := SubgraphStretchExact(g, tree)
	for i := range strT {
		// Subgraph distance can only match the unique tree path.
		if math.Abs(strT[i]-strS[i]) > 1e-9*(1+strT[i]) {
			t.Fatalf("edge %d: tree stretch %v vs subgraph stretch %v", i, strT[i], strS[i])
		}
	}
}

func TestSubgraphStretchSampled(t *testing.T) {
	g := gen.Grid2D(12, 12)
	tree := g.MSTKruskal()
	rng := rand.New(rand.NewSource(13))
	st := SubgraphStretchSampled(g, tree, 50, rng)
	if st.Average < 1 {
		t.Fatalf("sampled average stretch %v < 1", st.Average)
	}
	if st.Edges != g.M() {
		t.Fatalf("extrapolated edge count %d != %d", st.Edges, g.M())
	}
}

func TestSparseAKPWGrid(t *testing.T) {
	g := gen.Grid2D(20, 20)
	rng := rand.New(rand.NewSource(15))
	sub, stats := SparseAKPW(g, PracticalParams(), rng, nil)
	checkSpanningForest(t, g, sub.Tree)
	total := len(sub.EdgeIDs())
	if total < g.N-1 {
		t.Fatalf("subgraph too small: %d edges", total)
	}
	if total > g.M() {
		t.Fatalf("subgraph larger than graph: %d > %d", total, g.M())
	}
	if stats.ExtraEdges != len(sub.Extra) {
		t.Fatalf("stats extra %d != %d", stats.ExtraEdges, len(sub.Extra))
	}
	// Stretch of all edges w.r.t. Ĝ is finite and small.
	_, st := SubgraphStretchExact(g, sub.EdgeIDs())
	if math.IsInf(st.Max, 1) {
		t.Fatal("subgraph does not span")
	}
}

func TestSparseAKPWSurvivorsHaveStretchOne(t *testing.T) {
	g := gen.WithExponentialWeights(gen.GNP(150, 0.05, 16), 32, 3, 17)
	rng := rand.New(rand.NewSource(18))
	sub, _ := SparseAKPW(g, PracticalParams(), rng, nil)
	ids := sub.EdgeIDs()
	inSub := make(map[int]bool)
	for _, id := range ids {
		inSub[id] = true
	}
	str, _ := SubgraphStretchExact(g, ids)
	for _, id := range sub.Extra {
		if !inSub[id] {
			t.Fatalf("extra edge %d missing from EdgeIDs", id)
		}
		if str[id] > 1+1e-9 {
			t.Fatalf("survivor edge %d has stretch %v > 1", id, str[id])
		}
	}
}

// TestWellSpaceBudget is Lemma 5.7: the well-spacing transform removes at
// most θ·m edges, with no slack. It runs a θ × τ grid on two wide-range
// graphs (48 and 40 weight classes at z = 4), and the sparsifier's own
// settings (ParamsForBeta(n, 4, 2): z = 32, τ = 13, θ = 0.25) on the second,
// where the classes do not fill one group of τ·⌈1/θ⌉ and nothing may go.
func TestWellSpaceBudget(t *testing.T) {
	check := func(g *graph.Graph, z float64, tau int, theta float64) *WellSpacing {
		t.Helper()
		ws := WellSpace(g, z, tau, theta)
		if float64(len(ws.Removed)) > theta*float64(g.M()) {
			t.Fatalf("z=%v τ=%d θ=%v: removed %d of %d edges, budget θ·m = %.0f",
				z, tau, theta, len(ws.Removed), g.M(), theta*float64(g.M()))
		}
		for _, id := range ws.Removed {
			if ws.Keep[id] {
				t.Fatalf("edge %d both kept and removed", id)
			}
		}
		// Special classes follow a removed window; they are increasing.
		last := 0
		for _, s := range ws.Special {
			if s <= last {
				t.Fatalf("special classes not increasing: %v", ws.Special)
			}
			last = s
		}
		return ws
	}
	small := gen.WithExponentialWeights(gen.GNP(400, 0.03, 19), 4, 40, 20)
	for _, g := range []*graph.Graph{
		gen.WithExponentialWeights(gen.GNP(3000, 6.0/3000, 1), 4, 48, 1),
		small,
	} {
		for _, theta := range []float64{0.1, 0.25, 0.5} {
			for _, tau := range []int{2, 4} {
				if ws := check(g, 4, tau, theta); len(ws.Special) == 0 {
					t.Fatalf("θ=%v τ=%d: 40+ classes gave no special class", theta, tau)
				}
			}
		}
	}
	p := ParamsForBeta(small.N, 4, 2, false)
	if ws := check(small, p.Z, p.tau(small.N), p.Theta); len(ws.Removed) != 0 {
		t.Fatalf("sparsifier settings removed %d edges from a graph with less than one group of classes", len(ws.Removed))
	}
}

func TestWellSpaceUniformWeightsNoop(t *testing.T) {
	// Single weight class: nothing to remove.
	g := gen.Grid2D(10, 10)
	ws := WellSpace(g, 32, 2, 0.25)
	if len(ws.Removed) != 0 {
		t.Fatalf("uniform-weight graph lost %d edges", len(ws.Removed))
	}
}

func TestLSSubgraphGrid(t *testing.T) {
	g := gen.Grid2D(20, 20)
	rng := rand.New(rand.NewSource(21))
	sub, stats := LSSubgraph(g, PracticalParams(), rng, nil)
	checkSpanningForest(t, g, sub.Tree)
	_, st := SubgraphStretchExact(g, sub.EdgeIDs())
	if math.IsInf(st.Max, 1) {
		t.Fatal("LSSubgraph does not span")
	}
	if stats.TreeEdges != len(sub.Tree) {
		t.Fatalf("stats tree edges %d != %d", stats.TreeEdges, len(sub.Tree))
	}
}

func TestLSSubgraphMultiScaleWeights(t *testing.T) {
	// Wide weight spread exercises well-spacing segmentation.
	g := gen.WithExponentialWeights(gen.GNP(300, 0.03, 22), 16, 30, 23)
	rng := rand.New(rand.NewSource(24))
	sub, _ := LSSubgraph(g, PracticalParams(), rng, nil)
	checkSpanningForest(t, g, sub.Tree)
	ids := sub.EdgeIDs()
	h := subgraphOf(g, ids)
	if !sameComponents(g, h) {
		t.Fatal("LSSubgraph changes connectivity")
	}
}

func sameComponents(a, b *graph.Graph) bool {
	ca, ka := a.ConnectedComponents()
	cb, kb := b.ConnectedComponents()
	if ka != kb {
		return false
	}
	remap := make(map[int]int)
	for v := range ca {
		if w, ok := remap[ca[v]]; ok {
			if w != cb[v] {
				return false
			}
		} else {
			remap[ca[v]] = cb[v]
		}
	}
	return true
}

func TestLSSubgraphBetaTradeoff(t *testing.T) {
	// Theorem 5.9's knob: larger β ⇒ fewer extra edges (and higher stretch).
	// Only the end points are compared: in practical mode β also sets
	// z = 8β and θ = 1/β, which regroup the weight classes and the
	// well-spacing windows, so the count need not fall at every step (on a
	// 32² torus at λ = 2 it reads 108/65/89/12 for β = 2/4/8/16).
	g := gen.WithExponentialWeights(gen.Torus2D(24, 24), 16, 8, 25)
	extras := func(beta float64) int {
		rng := rand.New(rand.NewSource(26))
		p := ParamsForBeta(g.N, beta, 2, false)
		sub, _ := LSSubgraph(g, p, rng, nil)
		return len(sub.EdgeIDs()) - (g.N - 1)
	}
	lo, hi := extras(2), extras(16)
	if hi > lo {
		t.Fatalf("β=16 gave more extra edges (%d) than β=2 (%d)", hi, lo)
	}
}

func TestParamsForBetaPaperMode(t *testing.T) {
	p := ParamsForBeta(1<<20, 1e9, 2, true)
	if p.Y < 2 || p.Z < 8 {
		t.Fatalf("paper params degenerate: %+v", p)
	}
	if p.Theta <= 0 || p.Theta > 0.5 {
		t.Fatalf("theta out of range: %v", p.Theta)
	}
}

func TestAKPWPaperParamsSmall(t *testing.T) {
	// Paper constants on a small graph: z is astronomical so everything is
	// one class and one partition call — the tree must still span.
	g := gen.Grid2D(8, 8)
	rng := rand.New(rand.NewSource(27))
	tree, _ := AKPW(g, PaperParams(g.N), rng, nil)
	checkSpanningForest(t, g, tree)
}

func TestStretchDecreasesWithSubgraphDensity(t *testing.T) {
	// Adding extra edges to a tree can only reduce stretch.
	g := gen.Torus2D(12, 12)
	rng := rand.New(rand.NewSource(28))
	tree := g.MSTKruskal()
	_, stTree := SubgraphStretchExact(g, tree)
	sub, _ := SparseAKPW(g, PracticalParams(), rng, nil)
	ids := sub.EdgeIDs()
	if len(ids) > len(tree) {
		_, stSub := SubgraphStretchExact(g, ids)
		if stSub.Average > stTree.Average*2 {
			t.Fatalf("denser subgraph has far worse stretch: %.2f vs %.2f", stSub.Average, stTree.Average)
		}
	}
}
