// Package graph provides the weighted undirected multigraph substrate used
// by every algorithm in parlap: an edge-list builder, a CSR (compressed
// sparse row) adjacency view, connectivity, traversals, minimum spanning
// trees and graph contraction.
//
// Vertices are integers in [0, N). Edges carry a float64 weight, interpreted
// throughout as a *length* for distance computations and as a *conductance*
// when the graph is viewed as a Laplacian (the two views agree with the
// paper, which measures stretch with weights-as-lengths of the reciprocal
// conductance; see lowstretch for the exact convention used there).
package graph

import (
	"fmt"
	"math"
	"sort"

	"parlap/internal/par"
)

// Edge is an undirected edge {U, V} with weight W. Self-loops (U == V) are
// permitted in intermediate multigraphs but dropped by contraction helpers.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted multigraph in CSR form. The CSR stores
// each undirected edge twice (once per direction); EdgeID maps each
// directed half-edge back to its undirected edge index so algorithms can
// refer to the original edge list (e.g. edge classes in the AKPW bucketing).
type Graph struct {
	N     int    // number of vertices
	Edges []Edge // undirected edge list, length M

	// CSR arrays: for vertex u, half-edges are indices Off[u]..Off[u+1].
	Off    []int     // length N+1
	Adj    []int     // neighbor vertex per half-edge, length 2M
	Wt     []float64 // weight per half-edge, length 2M
	EdgeID []int     // undirected edge index per half-edge, length 2M
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Edges) }

// Validate checks structural invariants; it is used by tests and the CLI
// loaders, not on hot paths.
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
			return fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
		if math.IsNaN(e.W) || e.W < 0 {
			return fmt.Errorf("graph: edge %d has invalid weight %v", i, e.W)
		}
	}
	if len(g.Off) != g.N+1 {
		return fmt.Errorf("graph: Off length %d, want %d", len(g.Off), g.N+1)
	}
	if len(g.Adj) != 2*g.M() || len(g.Wt) != 2*g.M() || len(g.EdgeID) != 2*g.M() {
		return fmt.Errorf("graph: CSR arrays have inconsistent lengths")
	}
	return nil
}

// FromEdges builds a Graph (with CSR) from an edge list over n vertices.
// The edge slice is retained, not copied.
func FromEdges(n int, edges []Edge) *Graph { return FromEdgesW(0, n, edges) }

// FromEdgesW is FromEdges with an explicit worker count for the CSR build
// (0 = GOMAXPROCS, 1 = sequential) — the hook the solver uses to keep
// construction single-goroutine end-to-end under Options{Workers: 1}.
func FromEdgesW(workers, n int, edges []Edge) *Graph {
	g := &Graph{N: n, Edges: edges}
	g.buildCSRW(workers)
	return g
}

// buildCSRW (re)builds the CSR arrays from g.Edges using the offset-
// precomputed pack of par.HalfEdgePackW: per-chunk degree counts, a prefix
// sum, and per-(chunk, vertex) starting offsets make the half-edge scatter
// conflict-free without atomics. The layout matches the classic sequential
// cursor scatter for every worker count.
func (g *Graph) buildCSRW(workers int) {
	n, m := g.N, len(g.Edges)
	var pos []int
	g.Off, pos = par.HalfEdgePackW(workers, n, m, func(i int) (int, int) {
		e := g.Edges[i]
		return e.U, e.V
	})
	g.Adj = make([]int, 2*m)
	g.Wt = make([]float64, 2*m)
	g.EdgeID = make([]int, 2*m)
	par.ForChunkedW(workers, m, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			e := g.Edges[id]
			cu, cv := pos[2*id], pos[2*id+1]
			g.Adj[cu], g.Wt[cu], g.EdgeID[cu] = e.V, e.W, id
			g.Adj[cv], g.Wt[cv], g.EdgeID[cv] = e.U, e.W, id
		}
	})
}

// MemoryBytes estimates the graph's retained footprint: the edge list plus
// the CSR arrays. Used by serving layers that budget cache memory in bytes.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.Edges))*24 +
		int64(len(g.Off)+len(g.Adj)+len(g.EdgeID))*8 +
		int64(len(g.Wt))*8
}

// Degree returns the number of half-edges at u (self-loops count twice).
func (g *Graph) Degree(u int) int { return g.Off[u+1] - g.Off[u] }

// Neighbors calls fn(v, w, edgeID) for each half-edge (u,v).
func (g *Graph) Neighbors(u int, fn func(v int, w float64, id int)) {
	for i := g.Off[u]; i < g.Off[u+1]; i++ {
		fn(g.Adj[i], g.Wt[i], g.EdgeID[i])
	}
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	return par.SumFloat64W(0, len(g.Edges), func(i int) float64 { return g.Edges[i].W })
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return FromEdges(g.N, edges)
}

// InducedSubgraph returns the subgraph induced by keep (a vertex predicate),
// along with the mapping old->new vertex ids (-1 when dropped). Edge IDs in
// the result refer to the new edge list; origEdge maps new edge index ->
// original edge index.
func (g *Graph) InducedSubgraph(keep func(v int) bool) (sub *Graph, vmap []int, origEdge []int) {
	vmap = make([]int, g.N)
	next := 0
	for v := 0; v < g.N; v++ {
		if keep(v) {
			vmap[v] = next
			next++
		} else {
			vmap[v] = -1
		}
	}
	var edges []Edge
	for id, e := range g.Edges {
		if vmap[e.U] >= 0 && vmap[e.V] >= 0 {
			edges = append(edges, Edge{vmap[e.U], vmap[e.V], e.W})
			origEdge = append(origEdge, id)
		}
	}
	return FromEdges(next, edges), vmap, origEdge
}

// Contract collapses vertices according to comp (vertex -> component id in
// [0, numComp)), discarding self-loops and keeping parallel edges, exactly
// as AKPW iteration requires. origEdge maps contracted edge index to the
// original edge index in g.
func (g *Graph) Contract(comp []int, numComp int) (contracted *Graph, origEdge []int) {
	return g.ContractW(0, comp, numComp)
}

// ContractW is Contract with an explicit worker count for the contracted
// graph's CSR build.
func (g *Graph) ContractW(workers int, comp []int, numComp int) (contracted *Graph, origEdge []int) {
	var edges []Edge
	for id, e := range g.Edges {
		cu, cv := comp[e.U], comp[e.V]
		if cu == cv {
			continue
		}
		edges = append(edges, Edge{cu, cv, e.W})
		origEdge = append(origEdge, id)
	}
	return FromEdgesW(workers, numComp, edges), origEdge
}

// ConnectedComponents labels each vertex with a component id in [0, count)
// using repeated BFS. Runs in O(n+m).
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, g.N)
	for s := 0; s < g.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				v := g.Adj[i]
				if comp[v] < 0 {
					comp[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph is considered connected).
func (g *Graph) IsConnected() bool {
	if g.N == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// SortEdgesByWeight returns the edge indices sorted by nondecreasing weight.
func (g *Graph) SortEdgesByWeight() []int {
	idx := make([]int, len(g.Edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := g.Edges[idx[a]], g.Edges[idx[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return idx[a] < idx[b]
	})
	return idx
}

// WeightSpread returns max/min over positive edge weights (the paper's Δ).
// Returns 1 for graphs with no edges.
func (g *Graph) WeightSpread() float64 {
	if len(g.Edges) == 0 {
		return 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range g.Edges {
		if e.W < lo {
			lo = e.W
		}
		if e.W > hi {
			hi = e.W
		}
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi / lo
}
