package lowstretch

import (
	"math"
	"math/rand"

	"parlap/internal/graph"
	"parlap/internal/par"
)

// StretchStats aggregates per-edge stretches of a graph's edges with
// respect to a subgraph.
type StretchStats struct {
	Total   float64
	Average float64
	Max     float64
	Edges   int
}

// TreeIndex supports O(1) tree-distance queries on a spanning forest via
// Euler tour + sparse-table LCA — the standard exact method for measuring
// total stretch in O((n+m) log n).
type TreeIndex struct {
	n      int
	comp   []int32   // forest component per vertex
	wdepth []float64 // weighted depth from component root
	first  []int32   // first occurrence in the Euler tour
	tour   []int32   // Euler tour of vertices
	depth  []int32   // hop depth per vertex
	table  [][]int32 // sparse table over tour positions (argmin by depth)
	log2   []int8
}

// NewTreeIndex builds the index for the forest formed by treeEdges (edge
// ids into g). Weights are lengths.
func NewTreeIndex(g *graph.Graph, treeEdges []int) *TreeIndex {
	n := g.N
	// Forest adjacency.
	type half struct {
		to int32
		w  float64
	}
	adj := make([][]half, n)
	for _, id := range treeEdges {
		e := g.Edges[id]
		adj[e.U] = append(adj[e.U], half{int32(e.V), e.W})
		adj[e.V] = append(adj[e.V], half{int32(e.U), e.W})
	}
	ti := &TreeIndex{
		n:      n,
		comp:   make([]int32, n),
		wdepth: make([]float64, n),
		first:  make([]int32, n),
		depth:  make([]int32, n),
	}
	for i := range ti.comp {
		ti.comp[i] = -1
	}
	// Iterative Euler tour per root.
	var compID int32
	type frame struct {
		v    int32
		next int
	}
	for root := 0; root < n; root++ {
		if ti.comp[root] >= 0 {
			continue
		}
		ti.comp[root] = compID
		ti.depth[root] = 0
		ti.wdepth[root] = 0
		ti.first[root] = int32(len(ti.tour))
		ti.tour = append(ti.tour, int32(root))
		stack := []frame{{int32(root), 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(adj[f.v]) {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					ti.tour = append(ti.tour, stack[len(stack)-1].v)
				}
				continue
			}
			h := adj[f.v][f.next]
			f.next++
			if ti.comp[h.to] >= 0 {
				continue
			}
			ti.comp[h.to] = compID
			ti.depth[h.to] = ti.depth[f.v] + 1
			ti.wdepth[h.to] = ti.wdepth[f.v] + h.w
			ti.first[h.to] = int32(len(ti.tour))
			ti.tour = append(ti.tour, h.to)
			stack = append(stack, frame{h.to, 0})
		}
		compID++
	}
	// Sparse table of argmin-depth over the tour.
	m := len(ti.tour)
	ti.log2 = make([]int8, m+1)
	for i := 2; i <= m; i++ {
		ti.log2[i] = ti.log2[i/2] + 1
	}
	levels := int(ti.log2[m]) + 1
	if m == 0 {
		levels = 1
	}
	ti.table = make([][]int32, levels)
	base := make([]int32, m)
	for i := range base {
		base[i] = int32(i)
	}
	ti.table[0] = base
	for l := 1; l < levels; l++ {
		span := 1 << l
		row := make([]int32, m-span+1)
		prev := ti.table[l-1]
		half := span / 2
		for i := range row {
			a, b := prev[i], prev[i+half]
			if ti.depth[ti.tour[a]] <= ti.depth[ti.tour[b]] {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		ti.table[l] = row
	}
	return ti
}

// LCA returns the lowest common ancestor of u and v, or -1 if they lie in
// different forest components.
func (ti *TreeIndex) LCA(u, v int) int {
	if ti.comp[u] != ti.comp[v] {
		return -1
	}
	a, b := ti.first[u], ti.first[v]
	if a > b {
		a, b = b, a
	}
	l := ti.log2[b-a+1]
	span := int32(1) << l
	x, y := ti.table[l][a], ti.table[l][b-span+1]
	if ti.depth[ti.tour[x]] <= ti.depth[ti.tour[y]] {
		return int(ti.tour[x])
	}
	return int(ti.tour[y])
}

// Dist returns the tree path length between u and v (+Inf across
// components).
func (ti *TreeIndex) Dist(u, v int) float64 {
	l := ti.LCA(u, v)
	if l < 0 {
		return math.Inf(1)
	}
	return ti.wdepth[u] + ti.wdepth[v] - 2*ti.wdepth[l]
}

// TreeStretch computes the exact stretch of every edge of g with respect to
// the spanning forest treeEdges: str(e) = d_T(u,v)/w(e). Edges across
// forest components (impossible for spanning forests of g) contribute +Inf.
func TreeStretch(g *graph.Graph, treeEdges []int) ([]float64, StretchStats) {
	return TreeStretchW(0, g, treeEdges)
}

// TreeStretchW is TreeStretch with an explicit worker count.
func TreeStretchW(workers int, g *graph.Graph, treeEdges []int) ([]float64, StretchStats) {
	ti := NewTreeIndex(g, treeEdges)
	m := len(g.Edges)
	str := make([]float64, m)
	par.ForChunkedW(workers, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			if e.W <= 0 {
				str[i] = 1
				continue
			}
			str[i] = ti.Dist(e.U, e.V) / e.W
		}
	})
	return str, summarizeW(workers, str)
}

// SubgraphStretchExact computes the exact stretch of every edge of g with
// respect to the subgraph formed by edge ids sub, via a bounded Dijkstra per
// edge. Exact but O(m · m̂ log n) in the worst case — intended for
// correctness tests and small instances.
func SubgraphStretchExact(g *graph.Graph, sub []int) ([]float64, StretchStats) {
	h := subgraphOf(g, sub)
	m := len(g.Edges)
	str := make([]float64, m)
	par.ForChunkedW(0, m, func(lo, hi int) {
		buf := h.NewDistBuffer() // one epoch-stamped scratch per chunk
		for i := lo; i < hi; i++ {
			e := g.Edges[i]
			d := h.DijkstraToBuf(buf, e.U, e.V)
			if e.W <= 0 {
				str[i] = 1
			} else {
				str[i] = d / e.W
			}
		}
	})
	return str, summarize(str)
}

// SubgraphStretchSampled estimates the average and max stretch of g's edges
// w.r.t. the subgraph by sampling k edges uniformly. Returned stats
// extrapolate Total = Average·m.
func SubgraphStretchSampled(g *graph.Graph, sub []int, k int, rng *rand.Rand) StretchStats {
	h := subgraphOf(g, sub)
	m := len(g.Edges)
	if k > m {
		k = m
	}
	idx := rng.Perm(m)[:k]
	str := make([]float64, k)
	par.ForChunkedW(0, k, func(lo, hi int) {
		buf := h.NewDistBuffer() // one epoch-stamped scratch per chunk
		for i := lo; i < hi; i++ {
			e := g.Edges[idx[i]]
			d := h.DijkstraToBuf(buf, e.U, e.V)
			if e.W <= 0 {
				str[i] = 1
			} else {
				str[i] = d / e.W
			}
		}
	})
	st := summarize(str)
	st.Total = st.Average * float64(m)
	st.Edges = m
	return st
}

func subgraphOf(g *graph.Graph, sub []int) *graph.Graph {
	edges := make([]graph.Edge, len(sub))
	for i, id := range sub {
		edges[i] = g.Edges[id]
	}
	return graph.FromEdges(g.N, edges)
}

func summarize(str []float64) StretchStats { return summarizeW(0, str) }

func summarizeW(workers int, str []float64) StretchStats {
	st := StretchStats{Edges: len(str)}
	st.Total = par.SumFloat64W(workers, len(str), func(i int) float64 { return str[i] })
	st.Max = par.ReduceFloat64W(workers, len(str), 0, func(i int) float64 { return str[i] },
		math.Max)
	if len(str) > 0 {
		st.Average = st.Total / float64(len(str))
	}
	return st
}
