// Package lowstretch implements the paper's Section 5: parallel low-stretch
// spanning trees (the AKPW construction driven by the parallel low-diameter
// decomposition of Section 4) and parallel low-stretch ultra-sparse
// subgraphs (SparseAKPW with the well-spacing transform).
//
// Edge weights are interpreted as *lengths* throughout this package, exactly
// as in the paper: the stretch of edge e = {u,v} with respect to a subgraph
// G' is d_{G'}(u,v) / w(e). Callers coming from the Laplacian world
// (weights as conductances) must invert weights first; the solver package
// does this at its boundary.
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

// Params controls the AKPW family. Obtain via PaperParams or
// PracticalParams and override fields as needed.
type Params struct {
	// Y is the per-iteration decay target: each weight class should lose
	// all but a 1/Y fraction of its edges per iteration.
	// Paper (Thm 5.1): y = 2^√(6·log n·log log n).
	Y float64
	// Z is the weight bucket ratio (class i holds lengths in
	// [Z^(i−1), Z^i)); the decomposition radius each iteration is Z/4.
	// Paper: z = 4·c1·y·τ·log³n. Fact 5.3 requires Z ≥ 8.
	Z float64
	// Lambda is SparseAKPW's count of "live" weight classes; older classes
	// collapse into the generic bucket and their survivors are emitted into
	// the output subgraph. Theorem 5.9's λ.
	Lambda int
	// Theta is the well-spacing deletion budget of Lemma 5.7 (fraction of
	// edges set aside); Theorem 5.9 uses θ = (log³n/β)^λ.
	Theta float64
	// Decomp carries the Section 4 constants used by each Partition call.
	Decomp decomp.Params
	// MaxExtraIters bounds the tail iterations after the last weight class
	// enters (safety net; the expected tail is τ = log_Y(n²) iterations).
	MaxExtraIters int
	// Workers selects the goroutine count of the construction's parallel
	// loops (bucketing, packing, contraction relabeling, per-segment
	// fan-out): 0 = GOMAXPROCS, 1 = the sequential reference path. It does
	// NOT implicitly override Decomp.Workers — callers wanting a uniform
	// policy set both (the solver boundary does).
	Workers int
}

// tau returns the class-emptying horizon τ = ⌈3·log n / log y⌉ (paper §5.1).
func (p Params) tau(n int) int {
	ly := math.Log2(p.Y)
	if ly <= 0 {
		ly = 1
	}
	t := int(math.Ceil(3 * math.Log2(float64(n)) / ly))
	if t < 1 {
		t = 1
	}
	return t
}

// PaperParams returns the constants of Algorithm 5.1 (with c1 = 272 from
// Theorem 4.1). These are astronomically conservative at practical n — they
// exist so the theory-faithful settings can still be run and tested.
func PaperParams(n int) Params {
	ln := math.Log2(float64(n))
	if ln < 2 {
		ln = 2
	}
	y := math.Pow(2, math.Sqrt(6*ln*math.Log2(ln)))
	c1 := 272.0
	tauV := math.Ceil(3 * ln / math.Log2(y))
	z := 4 * c1 * y * tauV * ln * ln * ln
	return Params{
		Y: y, Z: z, Lambda: 2, Theta: 0.1,
		Decomp:        decomp.PaperParams(),
		MaxExtraIters: 200,
	}
}

// PracticalParams keeps every structural relationship (bucket ratio Z,
// radius Z/4, per-class decay Y, λ live classes) at magnitudes that produce
// informative spanning trees for n ≤ 10⁶.
func PracticalParams() Params {
	return Params{
		Y: 3, Z: 32, Lambda: 3, Theta: 0.125,
		Decomp:        decomp.PracticalParams(),
		MaxExtraIters: 200,
	}
}

// Stats reports what an AKPW-family run did, for tests and the lowstretch
// CLI.
type Stats struct {
	Iterations  int
	MaxClass    int   // highest populated weight class
	TreeEdges   int   // edges contributed via BFS trees
	ExtraEdges  int   // SparseAKPW survivors + well-spacing returns
	PatchEdges  int   // MST fallback edges used to restore spanning (0 normally)
	CutPerIter  []int // inter-component edges after each iteration's partition
	Work, Depth int64 // from the wd recorder when one was supplied
}

// classOf assigns 1-based weight classes E_i = {e : w(e)/wmin ∈ [Z^(i−1), Z^i)}.
func classOf(w, wmin, z float64) int {
	if w <= wmin {
		return 1
	}
	c := int(math.Floor(math.Log(w/wmin)/math.Log(z))) + 1
	if c < 1 {
		c = 1
	}
	return c
}

// akpwState is the contracted multigraph threaded through iterations.
type akpwState struct {
	cur     *graph.Graph
	origID  []int // cur edge -> original edge id
	class   []int // cur edge -> weight class (1-based; 0 = generic bucket)
	workers int   // goroutine count for this construction's parallel loops
}

// newAKPWState buckets g's edges by length class. The minimum-weight scan
// and the per-edge class assignment are parallel (min is exactly
// associative, so the fixed reduction tree gives the sequential answer).
func newAKPWState(workers int, g *graph.Graph, z float64) (*akpwState, int) {
	m := len(g.Edges)
	wmin := par.ReduceFloat64W(workers, m, math.Inf(1), func(i int) float64 {
		if w := g.Edges[i].W; w > 0 {
			return w
		}
		return math.Inf(1)
	}, func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	})
	if math.IsInf(wmin, 1) {
		wmin = 1
	}
	st := &akpwState{
		cur:     g,
		origID:  make([]int, m),
		class:   make([]int, m),
		workers: workers,
	}
	par.ForW(workers, m, func(i int) {
		st.origID[i] = i
		st.class[i] = classOf(g.Edges[i].W, wmin, z)
	})
	maxClass := par.ReduceIntW(workers, m, 1, func(i int) int { return st.class[i] }, maxInt)
	return st, maxClass
}

// maxInt is the exactly-associative max combiner for the reductions above.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// iterate performs one AKPW iteration: partition the subgraph of active
// edges with radius ρ, add BFS trees (in original-edge ids) to tree, and
// contract. active reports whether a cur edge participates this round.
// Returns the number of surviving (inter-component) active edges.
func (st *akpwState) iterate(rho int, active func(curEdge int) bool, classLabel func(curEdge int) int, k int,
	p decomp.Params, rng *rand.Rand, rec *wd.Recorder, tree *[]int) int {
	cur := st.cur
	w := st.workers
	// Active subgraph over the same vertex set: a parallel pack of the
	// participating edges (the per-iteration edge-bucketing hot loop).
	actCur := par.FilterIndexW(w, len(cur.Edges), active) // active edge -> cur edge id
	actEdges := make([]graph.Edge, len(actCur))
	par.ForW(w, len(actCur), func(i int) { actEdges[i] = cur.Edges[actCur[i]] })
	actG := graph.FromEdgesW(w, cur.N, actEdges)
	var class []int
	if k > 1 {
		class = make([]int, len(actEdges))
		par.ForW(w, len(class), func(i int) { class[i] = classLabel(actCur[i]) })
	}
	pr, _ := decomp.Partition(actG, class, k, rho, p, rng, rec)
	// BFS trees over the active subgraph, mapped to original ids.
	for _, aid := range decomp.BFSTrees(actG, pr.Result) {
		*tree = append(*tree, st.origID[actCur[aid]])
	}
	// Contract the whole current graph (active and future edges alike) by
	// the partition's components. Label copies and the surviving-edge
	// relabeling are embarrassingly parallel.
	comp := make([]int, cur.N)
	par.ForW(w, cur.N, func(v int) { comp[v] = int(pr.Comp[v]) })
	contracted, keptCur := cur.ContractW(w, comp, pr.NumComp)
	newOrig := make([]int, len(keptCur))
	newClass := make([]int, len(keptCur))
	par.ForW(w, len(keptCur), func(i int) {
		newOrig[i] = st.origID[keptCur[i]]
		newClass[i] = st.class[keptCur[i]]
	})
	st.cur = contracted
	st.origID = newOrig
	st.class = newClass
	return pr.Cut.Total
}

// AKPW builds a low-stretch spanning forest of g per Algorithm 5.1: edges
// are bucketed by length into classes with ratio Z, and iteration j
// partitions the contracted multigraph of classes ≤ j with radius Z/4,
// adding each component's BFS tree to the output and contracting.
//
// The returned slice holds edge ids of g forming a spanning forest (a
// spanning tree when g is connected). Stats captures per-iteration
// measurements.
func AKPW(g *graph.Graph, p Params, rng *rand.Rand, rec *wd.Recorder) ([]int, *Stats) {
	st, maxClass := newAKPWState(p.Workers, g, p.Z)
	stats := &Stats{MaxClass: maxClass}
	rho := int(p.Z / 4)
	if rho < 1 {
		rho = 1
	}
	var tree []int
	maxIters := maxClass + p.tau(g.N) + p.MaxExtraIters
	for j := 1; j <= maxIters; j++ {
		if len(st.cur.Edges) == 0 {
			break
		}
		jj := j
		// Classes present and ≤ j participate; relabel them densely for the
		// multi-class cut validation.
		present := map[int]int{}
		for id, c := range st.class {
			if c <= jj && st.cur.Edges[id].U != st.cur.Edges[id].V {
				if _, ok := present[c]; !ok {
					present[c] = len(present)
				}
			}
		}
		if len(present) == 0 {
			continue // no active edges yet at this class index
		}
		k := len(present)
		cut := st.iterate(rho,
			func(ce int) bool { return st.class[ce] <= jj },
			func(ce int) int { return present[st.class[ce]] },
			k, p.Decomp, rng, rec, &tree)
		stats.Iterations++
		stats.CutPerIter = append(stats.CutPerIter, cut)
	}
	tree = patchSpanning(g, tree, stats)
	stats.TreeEdges = len(tree)
	if rec != nil {
		stats.Work, stats.Depth = rec.Work(), rec.Depth()
	}
	sort.Ints(tree)
	return tree, stats
}

// patchSpanning guarantees the output spans every connected component of g:
// if the iteration cap left residual connectivity uncovered (possible only
// under extreme parameter settings), minimum-length edges are added. The
// number added is reported in stats.PatchEdges; it is zero in normal runs.
// The result is also deduplicated and cycle-free.
func patchSpanning(g *graph.Graph, tree []int, stats *Stats) []int {
	uf := graph.NewUnionFind(g.N)
	var out []int
	for _, id := range tree {
		e := g.Edges[id]
		if uf.Union(e.U, e.V) {
			out = append(out, id)
		}
	}
	if uf.Count() > 1 {
		for _, id := range g.MSTKruskal() {
			e := g.Edges[id]
			if uf.Union(e.U, e.V) {
				out = append(out, id)
				stats.PatchEdges++
			}
		}
	}
	return out
}
