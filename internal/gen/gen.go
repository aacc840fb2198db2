// Package gen constructs the graph families used across the tests,
// benchmarks and CLIs: meshes, random graphs, and pathological families from
// the solver literature. All generators are deterministic given their
// arguments (random families take an explicit seed).
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"parlap/internal/graph"
)

// Grid2D returns the rows×cols 4-neighbor grid with unit weights.
// Vertex (r, c) has index r*cols + c.
func Grid2D(rows, cols int) *graph.Graph {
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: v, V: v + 1, W: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: v, V: v + cols, W: 1})
			}
		}
	}
	return graph.FromEdges(rows*cols, edges)
}

// Grid3D returns the x×y×z 6-neighbor grid with unit weights.
func Grid3D(x, y, z int) *graph.Graph {
	idx := func(i, j, k int) int { return (i*y+j)*z + k }
	var edges []graph.Edge
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				v := idx(i, j, k)
				if k+1 < z {
					edges = append(edges, graph.Edge{U: v, V: idx(i, j, k+1), W: 1})
				}
				if j+1 < y {
					edges = append(edges, graph.Edge{U: v, V: idx(i, j+1, k), W: 1})
				}
				if i+1 < x {
					edges = append(edges, graph.Edge{U: v, V: idx(i+1, j, k), W: 1})
				}
			}
		}
	}
	return graph.FromEdges(x*y*z, edges)
}

// Torus2D returns the rows×cols grid with wraparound edges.
func Torus2D(rows, cols int) *graph.Graph {
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			edges = append(edges, graph.Edge{U: v, V: r*cols + (c+1)%cols, W: 1})
			edges = append(edges, graph.Edge{U: v, V: ((r+1)%rows)*cols + c, W: 1})
		}
	}
	return graph.FromEdges(rows*cols, edges)
}

// Path returns the n-vertex path with unit weights.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
	}
	return graph.FromEdges(n, edges)
}

// Cycle returns the n-vertex cycle with unit weights.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % n, W: 1})
	}
	return graph.FromEdges(n, edges)
}

// Star returns the n-vertex star centered at vertex 0.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: 1})
	}
	return graph.FromEdges(n, edges)
}

// Complete returns K_n with unit weights.
func Complete(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
		}
	}
	return graph.FromEdges(n, edges)
}

// Wheel returns a cycle on vertices 1..n-1 plus a hub (vertex 0) connected
// to every rim vertex.
func Wheel(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: 1})
		next := i + 1
		if next == n {
			next = 1
		}
		if next != i {
			edges = append(edges, graph.Edge{U: i, V: next, W: 1})
		}
	}
	return graph.FromEdges(n, edges)
}

// GNP returns an Erdős–Rényi G(n, p) graph with unit weights, conditioned
// to be connected by adding a random spanning path over a permutation first
// (a standard trick that preserves the degree profile for p ≫ 1/n while
// guaranteeing connectivity for solver benchmarks).
func GNP(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	var edges []graph.Edge
	seen := make(map[[2]int]bool)
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	for i := 0; i+1 < n; i++ {
		addEdge(perm[i], perm[i+1])
	}
	// Batagelj–Brandes geometric skipping: enumerate pairs (u, v) with
	// v < u in O(n²p) expected work. Row u has u candidate partners.
	if p > 0 {
		logq := math.Log1p(-p)
		u, v := 1, -1
		for u < n {
			skip := 1
			if p < 1 {
				skip = 1 + int(math.Log(1-rng.Float64())/logq)
			}
			v += skip
			for u < n && v >= u {
				v -= u
				u++
			}
			if u < n {
				addEdge(u, v)
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// RandomRegular returns an approximately d-regular graph built from d/2
// random permutation cycles (d must be even). Multi-edges are dropped, so
// degrees can be slightly below d.
func RandomRegular(n, d int, seed int64) *graph.Graph {
	if d%2 != 0 {
		d++
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var edges []graph.Edge
	for r := 0; r < d/2; r++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u, v := perm[i], perm[(i+1)%n]
			if u == v {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	return graph.FromEdges(n, edges)
}

// PreferentialAttachment returns a Barabási–Albert graph: vertices arrive
// one at a time and attach m unit-weight edges to existing vertices chosen
// proportionally to degree (the repeated-endpoint trick: sampling a uniform
// endpoint of the current edge multiset is degree-proportional sampling).
// The result is connected with a heavy-tailed degree profile — the "hub"
// regime where grid intuition fails and solver scaling benchmarks need a
// separate data point.
func PreferentialAttachment(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// endpoints flattens the running edge list; its length is 2·edges and a
	// uniform sample from it is a degree-proportional vertex.
	endpoints := make([]int, 0, 2*m*n)
	var edges []graph.Edge
	seen := make(map[[2]int]bool)
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		endpoints = append(endpoints, u, v)
	}
	// Seed clique on the first min(m+1, n) vertices.
	core := m + 1
	if core > n {
		core = n
	}
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			addEdge(i, j)
		}
	}
	for v := core; v < n; v++ {
		for t := 0; t < m; t++ {
			u := endpoints[rng.Intn(len(endpoints))]
			addEdge(v, u)
		}
	}
	return graph.FromEdges(n, edges)
}

// Barbell returns two K_k cliques joined by a path of length pathLen.
func Barbell(k, pathLen int) *graph.Graph {
	var edges []graph.Edge
	n := 2*k + pathLen - 1
	clique := func(base int) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	clique(0)
	// Path from vertex k-1 through pathLen-1 intermediates to the second
	// clique's vertex 0.
	prev := k - 1
	for i := 0; i < pathLen-1; i++ {
		edges = append(edges, graph.Edge{U: prev, V: k + i, W: 1})
		prev = k + i
	}
	secondBase := k + pathLen - 1
	edges = append(edges, graph.Edge{U: prev, V: secondBase, W: 1})
	clique(secondBase)
	return graph.FromEdges(n, edges)
}

// WithUniformWeights returns a copy of g with edge weights drawn uniformly
// from [lo, hi).
func WithUniformWeights(g *graph.Graph, lo, hi float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: lo + rng.Float64()*(hi-lo)}
	}
	return graph.FromEdges(g.N, edges)
}

// WithExponentialWeights returns a copy of g whose edge weights are z^k for
// k drawn uniformly from {0, ..., classes-1}: the multi-weight-class regime
// that exercises the AKPW bucketing and the well-spacing transform.
func WithExponentialWeights(g *graph.Graph, z float64, classes int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		k := rng.Intn(classes)
		edges[i] = graph.Edge{U: e.U, V: e.V, W: math.Pow(z, float64(k))}
	}
	return graph.FromEdges(g.N, edges)
}

// PathOfCliques returns count cliques of size k strung on a path: a
// moderately ill-conditioned family where low-stretch structure matters.
func PathOfCliques(k, count int) *graph.Graph {
	var edges []graph.Edge
	for c := 0; c < count; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
		if c+1 < count {
			edges = append(edges, graph.Edge{U: base + k - 1, V: base + k, W: 1})
		}
	}
	return graph.FromEdges(k*count, edges)
}

// FromSpec builds a graph from a compact textual spec, shared by the CLI
// tools:
//
//	grid2d:RxC    grid3d:XxYxZ    torus:RxC    path:N    cycle:N
//	gnp:N:P       regular:N:D     cliques:K:COUNT    pa:N:M
//
// Random families use the given seed.
func FromSpec(spec string, seed int64) (*graph.Graph, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("gen: bad spec %q (want kind:args)", spec)
	}
	kind, arg := parts[0], parts[1]
	dims := func(want int) ([]int, error) {
		fields := strings.Split(arg, "x")
		if len(fields) != want {
			return nil, fmt.Errorf("gen: %q wants %d dimensions, got %q", kind, want, arg)
		}
		out := make([]int, want)
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("gen: bad dimension %q", f)
			}
			out[i] = v
		}
		return out, nil
	}
	intArg := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return 0, fmt.Errorf("gen: bad count %q", s)
		}
		return v, nil
	}
	switch kind {
	case "grid2d":
		d, err := dims(2)
		if err != nil {
			return nil, err
		}
		return Grid2D(d[0], d[1]), nil
	case "grid3d":
		d, err := dims(3)
		if err != nil {
			return nil, err
		}
		return Grid3D(d[0], d[1], d[2]), nil
	case "torus":
		d, err := dims(2)
		if err != nil {
			return nil, err
		}
		return Torus2D(d[0], d[1]), nil
	case "path":
		n, err := intArg(arg)
		if err != nil {
			return nil, err
		}
		return Path(n), nil
	case "cycle":
		n, err := intArg(arg)
		if err != nil {
			return nil, err
		}
		return Cycle(n), nil
	case "gnp":
		fields := strings.Split(arg, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("gen: gnp wants N:P, got %q", arg)
		}
		n, err := intArg(fields[0])
		if err != nil {
			return nil, err
		}
		p, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("gen: bad gnp probability %q", fields[1])
		}
		return GNP(n, p, seed), nil
	case "regular":
		fields := strings.Split(arg, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("gen: regular wants N:D, got %q", arg)
		}
		n, err := intArg(fields[0])
		if err != nil {
			return nil, err
		}
		d, err := intArg(fields[1])
		if err != nil {
			return nil, err
		}
		return RandomRegular(n, d, seed), nil
	case "pa":
		fields := strings.Split(arg, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("gen: pa wants N:M, got %q", arg)
		}
		n, err := intArg(fields[0])
		if err != nil {
			return nil, err
		}
		m, err := intArg(fields[1])
		if err != nil {
			return nil, err
		}
		return PreferentialAttachment(n, m, seed), nil
	case "cliques":
		fields := strings.Split(arg, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("gen: cliques wants K:COUNT, got %q", arg)
		}
		k, err := intArg(fields[0])
		if err != nil {
			return nil, err
		}
		c, err := intArg(fields[1])
		if err != nil {
			return nil, err
		}
		return PathOfCliques(k, c), nil
	default:
		return nil, fmt.Errorf("gen: unknown generator %q", kind)
	}
}
