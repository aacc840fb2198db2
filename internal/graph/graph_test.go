package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func triangle() *Graph {
	return FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}})
}

func TestFromEdgesCSR(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	for v := 0; v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	// Each undirected edge appears exactly twice across half-edges.
	count := make(map[int]int)
	for _, id := range g.EdgeID {
		count[id]++
	}
	for id := 0; id < 3; id++ {
		if count[id] != 2 {
			t.Fatalf("edge %d has %d half-edges", id, count[id])
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := triangle()
	var seen []int
	var wts []float64
	g.Neighbors(0, func(v int, w float64, id int) {
		seen = append(seen, v)
		wts = append(wts, w)
	})
	sort.Ints(seen)
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("neighbors of 0 = %v", seen)
	}
	totalW := wts[0] + wts[1]
	if totalW != 4 { // weights 1 and 3
		t.Fatalf("neighbor weights sum = %v, want 4", totalW)
	}
}

func TestValidateRejectsBadEdges(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1, 1}})
	g.Edges[0].V = 5 // corrupt after construction
	if err := g.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
	g2 := FromEdges(2, []Edge{{0, 1, math.NaN()}})
	if err := g2.Validate(); err == nil {
		t.Fatal("expected NaN weight error")
	}
}

func TestTotalWeight(t *testing.T) {
	if w := triangle().TotalWeight(); w != 6 {
		t.Fatalf("TotalWeight = %v, want 6", w)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.Edges[0].W = 99
	if g.Edges[0].W == 99 {
		t.Fatal("clone shares edge storage")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	comp, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("vertices 0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Fatal("vertices 3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("vertex 5 should be isolated")
	}
	if g.IsConnected() {
		t.Fatal("graph should not be connected")
	}
	if !triangle().IsConnected() {
		t.Fatal("triangle should be connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}})
	sub, vmap, orig := g.InducedSubgraph(func(v int) bool { return v != 3 })
	if sub.N != 3 {
		t.Fatalf("sub.N = %d, want 3", sub.N)
	}
	if sub.M() != 2 {
		t.Fatalf("sub.M = %d, want 2", sub.M())
	}
	if vmap[3] != -1 {
		t.Fatal("dropped vertex should map to -1")
	}
	for _, id := range orig {
		e := g.Edges[id]
		if e.U == 3 || e.V == 3 {
			t.Fatal("edge incident to dropped vertex survived")
		}
	}
}

func TestContract(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 4}})
	comp := []int{0, 0, 1, 1}
	c, orig := g.Contract(comp, 2)
	if c.N != 2 {
		t.Fatalf("contracted N = %d, want 2", c.N)
	}
	// Edges {1,2} and {0,3} survive as parallel edges between supernodes.
	if c.M() != 2 {
		t.Fatalf("contracted M = %d, want 2", c.M())
	}
	for _, id := range orig {
		e := g.Edges[id]
		if comp[e.U] == comp[e.V] {
			t.Fatal("intra-component edge survived contraction")
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	n := 10
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{i, i + 1, 1}
	}
	g := FromEdges(n, edges)
	res := g.BFS([]int{0}, -1, nil)
	for v := 0; v < n; v++ {
		if int(res.Dist[v]) != v {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	// One expansion per non-empty frontier: frontiers exist at distances
	// 0..n-1, so n expansions (the last discovers nothing).
	if res.Levels != n {
		t.Fatalf("levels = %d, want %d", res.Levels, n)
	}
}

func TestBFSMaxDist(t *testing.T) {
	n := 10
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{i, i + 1, 1}
	}
	g := FromEdges(n, edges)
	res := g.BFS([]int{0}, 3, nil)
	for v := 0; v < n; v++ {
		want := v
		if v > 3 {
			want = -1
		}
		if int(res.Dist[v]) != want {
			t.Fatalf("bounded dist[%d] = %d, want %d", v, res.Dist[v], want)
		}
	}
}

func TestBFSMultiSource(t *testing.T) {
	n := 11
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{i, i + 1, 1}
	}
	g := FromEdges(n, edges)
	res := g.BFS([]int{0, 10}, -1, nil)
	if res.Dist[5] != 5 {
		t.Fatalf("dist[5] = %d, want 5", res.Dist[5])
	}
	if res.Dist[2] != 2 || res.Dist[8] != 2 {
		t.Fatal("multi-source distances wrong near sources")
	}
}

func TestBFSParentsFormTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 300
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{rng.Intn(i), i, 1})
	}
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{u, v, 1})
		}
	}
	g := FromEdges(n, edges)
	res := g.BFS([]int{0}, -1, nil)
	for v := 1; v < n; v++ {
		p := int(res.Parent[v])
		if p < 0 {
			t.Fatalf("vertex %d unreachable in connected graph", v)
		}
		if res.Dist[v] != res.Dist[p]+1 {
			t.Fatalf("parent dist mismatch at %d", v)
		}
		eid := int(res.ParentEdge[v])
		e := g.Edges[eid]
		if (e.U != v || e.V != p) && (e.U != p || e.V != v) {
			t.Fatalf("ParentEdge of %d does not connect to parent", v)
		}
	}
}

// TestBFSLargeParallelMatchesSequential cross-checks the parallel frontier
// expansion against a simple sequential BFS on a graph large enough to
// trigger the parallel path.
func TestBFSLargeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20000
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{rng.Intn(i), i, 1})
	}
	for i := 0; i < 80000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{u, v, 1})
		}
	}
	g := FromEdges(n, edges)
	res := g.BFS([]int{0}, -1, nil)
	// Sequential reference.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			v := g.Adj[i]
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		if int(res.Dist[v]) != dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], dist[v])
		}
	}
}

func TestEccentricity(t *testing.T) {
	n := 16
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{i, i + 1, 1}
	}
	g := FromEdges(n, edges)
	if ecc := g.Eccentricity(0); ecc != n-1 {
		t.Fatalf("ecc(0) = %d, want %d", ecc, n-1)
	}
	if ecc := g.Eccentricity(n / 2); ecc != n/2 {
		t.Fatalf("ecc(mid) = %d, want %d", ecc, n/2)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("count = %d, want 5", uf.Count())
	}
	if !uf.Union(0, 1) {
		t.Fatal("union of distinct sets returned false")
	}
	if uf.Union(0, 1) {
		t.Fatal("repeated union returned true")
	}
	uf.Union(2, 3)
	uf.Union(1, 2)
	if !uf.Connected(0, 3) {
		t.Fatal("0 and 3 should be connected")
	}
	if uf.Connected(0, 4) {
		t.Fatal("0 and 4 should be disjoint")
	}
	if uf.Count() != 2 {
		t.Fatalf("count = %d, want 2", uf.Count())
	}
	comp, k := uf.Labels()
	if k != 2 {
		t.Fatalf("labels count = %d, want 2", k)
	}
	if comp[0] != comp[3] || comp[0] == comp[4] {
		t.Fatalf("bad labels %v", comp)
	}
}

func TestUnionFindProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		n := 64
		uf := NewUnionFind(n)
		type pair struct{ a, b int }
		var merged []pair
		for _, op := range ops {
			a, b := int(op)%n, int(op>>8)%n
			uf.Union(a, b)
			merged = append(merged, pair{a, b})
		}
		// Reference: naive label propagation.
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		for changed := true; changed; {
			changed = false
			for _, p := range merged {
				la, lb := label[p.a], label[p.b]
				if la != lb {
					m := la
					if lb < m {
						m = lb
					}
					for i := range label {
						if label[i] == la || label[i] == lb {
							label[i] = m
						}
					}
					changed = true
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (label[i] == label[j]) != uf.Connected(i, j) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func mstWeight(g *Graph, tree []int) float64 {
	w := 0.0
	for _, id := range tree {
		w += g.Edges[id].W
	}
	return w
}

func TestMSTKruskalSimple(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 10}, {0, 2, 10}})
	tree := g.MSTKruskal()
	if len(tree) != 3 {
		t.Fatalf("tree size = %d, want 3", len(tree))
	}
	if w := mstWeight(g, tree); w != 6 {
		t.Fatalf("MST weight = %v, want 6", w)
	}
}

func TestMSTEqualWeights(t *testing.T) {
	// All weights equal: any spanning tree is minimal; Kruskal must
	// produce n-1 edges.
	g := FromEdges(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 0, 1}, {0, 2, 1}})
	if len(g.MSTKruskal()) != 4 {
		t.Fatal("Kruskal wrong size on equal weights")
	}
}

func TestDijkstraOnWeightedPath(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 2.5}, {1, 2, 0.5}, {2, 3, 1}})
	d := g.Dijkstra(0)
	want := []float64{0, 2.5, 3, 4}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// Direct heavy edge vs two light hops.
	g := FromEdges(3, []Edge{{0, 2, 10}, {0, 1, 1}, {1, 2, 1}})
	d := g.Dijkstra(0)
	if d[2] != 2 {
		t.Fatalf("d[2] = %v, want 2", d[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}})
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) {
		t.Fatalf("d[2] = %v, want +Inf", d[2])
	}
}

func TestDijkstraToEarlyExit(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {0, 4, 10}})
	if d := g.DijkstraTo(0, 4); d != 4 {
		t.Fatalf("DijkstraTo = %v, want 4", d)
	}
	if d := g.DijkstraTo(0, 0); d != 0 {
		t.Fatalf("DijkstraTo self = %v, want 0", d)
	}
}

func TestDijkstraBounded(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}})
	d := g.DijkstraBounded(0, 2)
	if d[2] != 2 {
		t.Fatalf("d[2] = %v, want 2", d[2])
	}
	if !math.IsInf(d[4], 1) {
		t.Fatalf("d[4] = %v, want +Inf beyond bound", d[4])
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 500
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{rng.Intn(i), i, 1})
	}
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{u, v, 1})
		}
	}
	g := FromEdges(n, edges)
	d := g.Dijkstra(0)
	bfs := g.BFS([]int{0}, -1, nil)
	for v := 0; v < n; v++ {
		if int(d[v]) != int(bfs.Dist[v]) {
			t.Fatalf("Dijkstra %v != BFS %d at %d", d[v], bfs.Dist[v], v)
		}
	}
}

func TestWeightSpread(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 2}, {1, 2, 8}})
	if s := g.WeightSpread(); s != 4 {
		t.Fatalf("spread = %v, want 4", s)
	}
	if s := FromEdges(2, nil).WeightSpread(); s != 1 {
		t.Fatalf("empty spread = %v, want 1", s)
	}
}

func TestSortEdgesByWeight(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 3}, {1, 2, 1}, {2, 3, 2}})
	idx := g.SortEdgesByWeight()
	want := []int{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("sorted idx = %v, want %v", idx, want)
		}
	}
}

// TestDijkstraToBufReuse drives one DistBuffer through many queries on a
// random graph and checks every answer against the full Dijkstra — stale
// epochs from earlier queries must never leak into later ones.
func TestDijkstraToBufReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 120
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: rng.Intn(i), V: i, W: 0.5 + rng.Float64()})
	}
	for k := 0; k < 80; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, W: 0.5 + 2*rng.Float64()})
		}
	}
	// A disconnected island exercises the +Inf (unreachable) path.
	g := FromEdges(n+2, append(edges, Edge{U: n, V: n + 1, W: 1}))
	buf := g.NewDistBuffer()
	for q := 0; q < 200; q++ {
		s, tt := rng.Intn(g.N), rng.Intn(g.N)
		want := g.Dijkstra(s)[tt]
		if got := g.DijkstraToBuf(buf, s, tt); got != want {
			t.Fatalf("query %d (%d->%d): got %v, want %v", q, s, tt, got, want)
		}
	}
}

// TestBuildCSRWorkerEquivalence pins the packed CSR layout across the
// worker axis: the offset-precomputed parallel scatter must reproduce the
// sequential cursor layout array-for-array.
func TestBuildCSRWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 400
	edges := make([]Edge, 9000)
	for i := range edges {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if i%17 == 0 {
			v = u // self-loops take two consecutive slots
		}
		edges[i] = Edge{U: u, V: v, W: rng.Float64()}
	}
	ref := FromEdgesW(1, n, edges)
	for _, w := range []int{0, 2, 4} {
		g := FromEdgesW(w, n, edges)
		if len(g.Off) != len(ref.Off) || len(g.Adj) != len(ref.Adj) {
			t.Fatalf("workers=%d: CSR shape differs", w)
		}
		for i := range ref.Off {
			if g.Off[i] != ref.Off[i] {
				t.Fatalf("workers=%d: Off[%d] differs", w, i)
			}
		}
		for i := range ref.Adj {
			if g.Adj[i] != ref.Adj[i] || g.Wt[i] != ref.Wt[i] || g.EdgeID[i] != ref.EdgeID[i] {
				t.Fatalf("workers=%d: half-edge %d differs", w, i)
			}
		}
	}
}
