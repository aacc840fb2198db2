package graph

import "sort"

// MSTKruskal returns the edge ids of a minimum spanning forest (weights as
// lengths), computed by Kruskal's algorithm. Deterministic: ties broken by
// edge id.
func (g *Graph) MSTKruskal() []int {
	order := g.SortEdgesByWeight()
	uf := NewUnionFind(g.N)
	var tree []int
	for _, id := range order {
		e := g.Edges[id]
		if e.U != e.V && uf.Union(e.U, e.V) {
			tree = append(tree, id)
			if len(tree) == g.N-1 {
				break
			}
		}
	}
	sort.Ints(tree)
	return tree
}
