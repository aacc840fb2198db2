package lowstretch

import (
	"math"
	"math/rand"
	"sort"

	"parlap/internal/decomp"
	"parlap/internal/graph"
	"parlap/internal/par"
	"parlap/internal/wd"
)

// Subgraph is the output of the ultra-sparse constructions: a spanning
// forest plus a small set of extra edges, all referencing g's edge ids.
type Subgraph struct {
	Tree  []int // spanning-forest edge ids
	Extra []int // survivor edges (stretch 1 by construction) + well-spacing returns
	Stats *Stats
}

// EdgeIDs returns the deduplicated union of tree and extra edges.
func (s *Subgraph) EdgeIDs() []int {
	seen := make(map[int]bool, len(s.Tree)+len(s.Extra))
	var out []int
	for _, lists := range [2][]int{s.Tree, s.Extra} {
		for _, id := range lists {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Graph materializes the subgraph Ĝ over g's vertex set.
func (s *Subgraph) Graph(g *graph.Graph) *graph.Graph {
	ids := s.EdgeIDs()
	edges := make([]graph.Edge, len(ids))
	for i, id := range ids {
		edges[i] = g.Edges[id]
	}
	return graph.FromEdges(g.N, edges)
}

// SparseAKPW is the Section 5.2.1 construction: Algorithm 5.1 modified to
// (1) keep only the λ most recent weight classes distinct, folding older
// classes into a generic bucket, and (2) emit the class-i edges still alive
// at iteration i+λ directly into the output subgraph (where their stretch
// is 1). The result is an ultra-sparse subgraph rather than a tree — the
// form the parallel solver needs (Lemma 6.2).
func SparseAKPW(g *graph.Graph, p Params, rng *rand.Rand, rec *wd.Recorder) (*Subgraph, *Stats) {
	st, maxClass := newAKPWState(p.Workers, g, p.Z)
	stats := &Stats{MaxClass: maxClass}
	rho := int(p.Z / 4)
	if rho < 1 {
		rho = 1
	}
	lambda := p.Lambda
	if lambda < 1 {
		lambda = 1
	}
	var tree, extra []int
	maxIters := maxClass + p.tau(g.N) + p.MaxExtraIters
	for j := 1; j <= maxIters; j++ {
		if len(st.cur.Edges) == 0 {
			break
		}
		// Retire class j−λ: emit survivors into Ĝ and fold into the generic
		// bucket (class 0).
		retire := j - lambda
		if retire >= 1 {
			for id, c := range st.class {
				if c == retire {
					extra = append(extra, st.origID[id])
					st.class[id] = 0
				}
			}
		}
		jj := j
		// Active: generic bucket plus live classes ≤ j. Class labels for
		// validation: generic → 0, class c → c − (j−λ).
		anyActive := false
		for id, c := range st.class {
			if c <= jj && st.cur.Edges[id].U != st.cur.Edges[id].V {
				anyActive = true
				_ = id
				break
			}
		}
		if !anyActive {
			continue
		}
		cut := st.iterate(rho,
			func(ce int) bool { return st.class[ce] <= jj },
			func(ce int) int {
				c := st.class[ce]
				if c == 0 {
					return 0
				}
				l := c - (jj - lambda)
				if l < 0 {
					l = 0
				}
				return l
			},
			lambda+1, p.Decomp, rng, rec, &tree)
		stats.Iterations++
		stats.CutPerIter = append(stats.CutPerIter, cut)
	}
	// Any edges remaining after the iteration cap join the output verbatim
	// (stretch 1), mirroring the emission rule.
	for id := range st.cur.Edges {
		if st.cur.Edges[id].U != st.cur.Edges[id].V {
			extra = append(extra, st.origID[id])
		}
	}
	tree = patchSpanning(g, tree, stats)
	stats.TreeEdges = len(tree)
	stats.ExtraEdges = len(extra)
	if rec != nil {
		stats.Work, stats.Depth = rec.Work(), rec.Depth()
	}
	sort.Ints(tree)
	return &Subgraph{Tree: tree, Extra: extra, Stats: stats}, stats
}

// WellSpacing is the outcome of the Lemma 5.7 transform.
type WellSpacing struct {
	Removed []int // edge ids deleted from g (returned to Ĝ at the end)
	Keep    []bool
	Special []int // special class indices (each preceded by ≥ τ empty classes)
}

// WellSpace deletes at most θ·|E| edges so that the remaining classes are
// (4τ/θ, τ)-well-spaced (Lemma 5.7). Classes are grouped into runs of
// τ·⌈1/θ⌉, each holding ⌈1/θ⌉ disjoint windows of τ consecutive classes;
// within each group the lightest window is removed, making the class after
// it "special". By averaging that window holds at most θ of the group's
// edges, so the total stays within θ·|E|. A trailing run shorter than a
// group joins the group before it, and a graph with fewer classes than one
// group removes nothing: it needs no special class. Runs in O(m) work and
// O(log n)-style depth (a bucket count plus a prefix scan).
func WellSpace(g *graph.Graph, z float64, tau int, theta float64) *WellSpacing {
	if theta <= 0 || theta >= 1 {
		theta = 0.25
	}
	if tau < 1 {
		tau = 1
	}
	wmin := math.Inf(1)
	for _, e := range g.Edges {
		if e.W > 0 && e.W < wmin {
			wmin = e.W
		}
	}
	if math.IsInf(wmin, 1) {
		wmin = 1
	}
	maxClass := 1
	class := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		class[i] = classOf(e.W, wmin, z)
		if class[i] > maxClass {
			maxClass = class[i]
		}
	}
	count := make([]int, maxClass+2)
	for _, c := range class {
		count[c]++
	}
	groupLen := tau * int(math.Ceil(1/theta))
	ws := &WellSpacing{Keep: make([]bool, len(g.Edges))}
	for i := range ws.Keep {
		ws.Keep[i] = true
	}
	removedClass := make([]bool, maxClass+2)
	for lo := 1; lo+groupLen-1 <= maxClass; lo += groupLen {
		hi := lo + groupLen - 1
		if hi+groupLen > maxClass {
			hi = maxClass // the trailing stub joins the last group
		}
		// Lightest window of τ consecutive classes within [lo, hi].
		winSum := 0
		for c := lo; c < lo+tau; c++ {
			winSum += count[c]
		}
		best, bestAt := winSum, lo
		for s := lo + 1; s+tau-1 <= hi; s++ {
			winSum += count[s+tau-1] - count[s-1]
			if winSum < best {
				best, bestAt = winSum, s
			}
		}
		for c := bestAt; c < bestAt+tau; c++ {
			removedClass[c] = true
		}
		if bestAt+tau <= maxClass {
			ws.Special = append(ws.Special, bestAt+tau)
		}
	}
	for i, c := range class {
		if removedClass[c] {
			ws.Keep[i] = false
			ws.Removed = append(ws.Removed, i)
		}
	}
	return ws
}

// LSSubgraph is the Theorem 5.9 construction: well-space the graph, run
// SparseAKPW independently (and in parallel) on each well-spaced segment of
// weight classes — each segment's starting vertex set is recovered by
// contracting all lighter kept edges, which is valid because classes below a
// special bucket are fully contracted by then (Lemma 5.8) — and return the
// union plus the removed edges.
//
// The recorder is charged the maximum depth over segments (they run in
// parallel) and the sum of their work.
func LSSubgraph(g *graph.Graph, p Params, rng *rand.Rand, rec *wd.Recorder) (*Subgraph, *Stats) {
	tau := p.tau(g.N)
	ws := WellSpace(g, p.Z, tau, p.Theta)
	// Segment boundaries: class 1 plus every special class.
	bounds := append([]int{1}, ws.Special...)
	segRecs := make([]*wd.Recorder, len(bounds))
	segSubs := make([]*Subgraph, len(bounds))
	segOrig := make([][]int, len(bounds)) // segment edge id -> g edge id
	// Per-segment RNGs derived from the caller's stream for determinism.
	segSeeds := make([]int64, len(bounds))
	for i := range segSeeds {
		segSeeds[i] = rng.Int63()
	}
	wmin := math.Inf(1)
	for _, e := range g.Edges {
		if e.W > 0 && e.W < wmin {
			wmin = e.W
		}
	}
	if math.IsInf(wmin, 1) {
		wmin = 1
	}
	class := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		class[i] = classOf(e.W, wmin, p.Z)
	}
	segEnd := func(s int) int {
		if s+1 < len(bounds) {
			return bounds[s+1]
		}
		return math.MaxInt32
	}
	// With nothing removed and no special class there is one segment, its
	// contraction of lighter classes is empty, and its graph would be g's
	// copy minus self-loops: without self-loops, g itself is the segment
	// (SparseAKPW only reads its input).
	whole := len(ws.Removed) == 0 && len(ws.Special) == 0
	for _, e := range g.Edges {
		if e.U == e.V {
			whole = false
			break
		}
	}
	fns := make([]func(), len(bounds))
	for s := range bounds {
		s := s
		fns[s] = func() {
			segRecs[s] = &wd.Recorder{}
			srng := rand.New(rand.NewSource(segSeeds[s]))
			if whole {
				segSubs[s], _ = SparseAKPW(g, p, srng, segRecs[s])
				segOrig[s] = identity(len(g.Edges))
				return
			}
			lo, hi := bounds[s], segEnd(s)
			// Starting supernodes: contract kept edges of classes < lo.
			uf := graph.NewUnionFind(g.N)
			for id, e := range g.Edges {
				if ws.Keep[id] && class[id] < lo {
					uf.Union(e.U, e.V)
				}
			}
			label, numSup := uf.Labels()
			var edges []graph.Edge
			var orig []int
			for id, e := range g.Edges {
				if !ws.Keep[id] || class[id] < lo || class[id] >= hi {
					continue
				}
				cu, cv := label[e.U], label[e.V]
				if cu == cv {
					continue
				}
				edges = append(edges, graph.Edge{U: cu, V: cv, W: e.W})
				orig = append(orig, id)
			}
			segG := graph.FromEdgesW(p.Workers, numSup, edges)
			sub, _ := SparseAKPW(segG, p, srng, segRecs[s])
			segSubs[s] = sub
			segOrig[s] = orig
		}
	}
	// Segments fan out on the same worker budget as everything else;
	// Workers:1 runs them sequentially in index order (each segment has its
	// own rng stream, so the results are schedule-free either way).
	par.DoW(p.Workers, fns...)
	// Merge. Map segment-local edge ids back through orig.
	stats := &Stats{}
	var tree, extra []int
	var maxDepth int64
	for s := range bounds {
		sub := segSubs[s]
		for _, id := range sub.Tree {
			tree = append(tree, segOrig[s][id])
		}
		for _, id := range sub.Extra {
			extra = append(extra, segOrig[s][id])
		}
		stats.Iterations += sub.Stats.Iterations
		if sub.Stats.MaxClass > stats.MaxClass {
			stats.MaxClass = sub.Stats.MaxClass
		}
		stats.CutPerIter = append(stats.CutPerIter, sub.Stats.CutPerIter...)
		if d := segRecs[s].Depth(); d > maxDepth {
			maxDepth = d
		}
		stats.Work += segRecs[s].Work()
	}
	stats.Depth = maxDepth
	rec.Add(stats.Work, maxDepth)
	// Removed (well-spacing) edges rejoin the output verbatim (Fact 5.6).
	extra = append(extra, ws.Removed...)
	tree = patchSpanning(g, tree, stats)
	stats.TreeEdges = len(tree)
	stats.ExtraEdges = len(extra)
	sort.Ints(tree)
	return &Subgraph{Tree: tree, Extra: extra, Stats: stats}, stats
}

// identity returns the id map 0, 1, …, m−1.
func identity(m int) []int {
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// ParamsForBeta instantiates Theorem 5.9's parameter schedule for a target
// sparsity/stretch trade-off β (≥ 1): larger β means fewer extra edges in
// Ĝ and higher stretch. In paper mode the exact formulas
// y = β/(c2·log³n), z = 4·c1·y·(λ+1)·log³n, θ = (log³n/β)^λ are used; in
// practical mode β sets the decay Y directly with Z = 8·Y and
// θ = min(0.5, 1/β).
func ParamsForBeta(n int, beta float64, lambda int, paper bool) Params {
	if lambda < 1 {
		lambda = 1
	}
	if beta < 2 {
		beta = 2
	}
	if paper {
		ln := math.Log2(float64(n))
		if ln < 2 {
			ln = 2
		}
		c1 := 272.0
		c2 := 2 * math.Pow(4*c1*float64(lambda+1), 0.5*float64(lambda-1))
		y := beta / (c2 * ln * ln * ln)
		if y < 2 {
			y = 2
		}
		z := 4 * c1 * y * float64(lambda+1) * ln * ln * ln
		theta := math.Pow(ln*ln*ln/beta, float64(lambda))
		if theta > 0.5 {
			theta = 0.5
		}
		return Params{Y: y, Z: z, Lambda: lambda, Theta: theta,
			Decomp: decomp.PaperParams(), MaxExtraIters: 200}
	}
	y := beta
	z := 8 * y
	if z < 16 {
		z = 16
	}
	theta := 1 / beta
	if theta > 0.5 {
		theta = 0.5
	}
	return Params{Y: y, Z: z, Lambda: lambda, Theta: theta,
		Decomp: decomp.PracticalParams(), MaxExtraIters: 200}
}
