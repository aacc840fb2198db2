// Package decomp implements the paper's Section 4: parallel low-diameter
// graph decomposition with strong-diameter guarantees.
//
// splitGraph (Algorithm 4.1) partitions an unweighted graph into components
// of strong hop-radius at most ρ by growing balls from randomly sampled
// centers with random integer "jitters" δs ∈ [0, R]: vertex u is assigned to
// the center s minimizing dist(u, s) + δs, with ties broken toward the
// smaller center id. The center schedule grows geometrically across
// T iterations (Cohen-style repeated sampling) while the ball radius
// r(t) = (T−t+1)·R shrinks, guaranteeing full coverage.
//
// A key implementation observation: u lies in *some* jittered ball at
// iteration t exactly when min_s dist(u,s)+δs ≤ r(t), so the whole iteration
// is a single multi-source delayed BFS — center s activates at time δs, all
// growth stops at time r(t). Each vertex settles once, with the
// lexicographic (arrival time, owner id) minimum; by the standard shifted
// -BFS argument this computes argmin_s dist(u,s)+δs exactly, and the
// shortest-path closure of Lemma 4.3 makes every component's strong radius
// ≤ r(t) ≤ ρ by construction.
//
// Partition (Algorithm 4.2) runs splitGraph over the union of k edge
// classes and retries until every class has at most |Ei|·c1·k·log³n/ρ
// inter-component edges (Theorem 4.1(3)).
package decomp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"parlap/internal/graph"
	"parlap/internal/par"
	"parlap/internal/wd"
)

// Params controls the decomposition's constants. The zero value is invalid;
// use PaperParams or PracticalParams. Every constant keeps the paper's
// functional form; the presets differ only in scale, as the proof constants
// (σt = 12·…, c1 = 272, T = 2·log n) target asymptotic regimes where
// ρ ≫ log³n, unreachable at benchmark sizes.
type Params struct {
	// TScale sets the iteration count T = max(2, ⌈TScale·log₂ n⌉).
	// Paper: 2.
	TScale float64
	// SigmaScale sets the center sample size
	// σt = ⌈SigmaScale · n^(t/T−1) · |V(t)| · log₂ n⌉. Paper: 12.
	SigmaScale float64
	// CutConst and CutLogPower set the per-class validation threshold
	// |Ei| · CutConst · k · (log₂ n)^CutLogPower / ρ. Paper: 272 and 3.
	CutConst    float64
	CutLogPower int
	// MaxRetries bounds Partition's resampling loop (expected 4 in the
	// paper's analysis).
	MaxRetries int
	// CountCoverage, when true, additionally computes for every vertex the
	// number of (center, iteration) pairs whose radius-r(t) ball covers it
	// (the quantity bounded by Lemma 4.4). This costs the paper's full
	// O(m log² n) ball-growing work and is used only by Lemma 4.4's test.
	CountCoverage bool
	// Workers selects the goroutine count of the decomposition's parallel
	// kernels (frontier expansion, coverage counting, cut validation):
	// 0 = GOMAXPROCS, 1 = the sequential reference path (no goroutines).
	// Results are identical for every setting: each BFS round resolves
	// ownership by a commutative minimum (min center id) and packs the next
	// frontier in flat candidate order, so the assignment AND the frontier
	// order are schedule-free.
	Workers int
}

// PaperParams returns the constants exactly as in Algorithm 4.1/4.2.
func PaperParams() Params {
	return Params{TScale: 2, SigmaScale: 12, CutConst: 272, CutLogPower: 3, MaxRetries: 40}
}

// PracticalParams returns scaled-down constants that keep every functional
// form (geometric center schedule, shrinking radius, jitter range ρ/T, 1/ρ
// cut-fraction decay) while producing non-trivial components at n ≤ 10⁶.
func PracticalParams() Params {
	return Params{TScale: 0.5, SigmaScale: 0.25, CutConst: 8, CutLogPower: 1, MaxRetries: 40}
}

// Result is a decomposition of the vertex set into components.
type Result struct {
	Comp     []int32 // vertex -> component id in [0, NumComp)
	NumComp  int
	Centers  []int32 // component id -> its center vertex
	CompIter []int32 // component id -> iteration (1-based) that created it
	// Coverage[v] counts (center, iteration) pairs with v ∈ B(t)(s, r(t));
	// non-nil only when Params.CountCoverage was set.
	Coverage []int32

	T, R int // the schedule actually used
}

// log2 returns log base 2 of n, at least 1.
func log2(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// SplitGraph partitions g into components of strong hop-radius at most rho.
// Edge weights are ignored (the paper's decomposition is on unweighted
// graphs; AKPW applies it to weight-class unions). rng drives all sampling;
// rec, if non-nil, is charged work = half-edges scanned and depth = BFS
// levels executed.
func SplitGraph(g *graph.Graph, rho int, p Params, rng *rand.Rand, rec *wd.Recorder) *Result {
	n := g.N
	if rho < 1 {
		rho = 1
	}
	// A radius beyond n−1 cannot bind (hop diameter < n); clamping keeps the
	// time loop O(n) when callers pass paper-scale ρ on small graphs.
	if rho > n {
		rho = n
	}
	T := int(math.Ceil(p.TScale * log2(n)))
	if T < 2 {
		T = 2
	}
	// The strong-radius bound is r(1) = T·R ≤ ρ, so T may never exceed ρ
	// (the paper's regime has ρ ≫ log n ≥ T/2, where this never binds).
	if T > rho {
		T = rho
	}
	R := rho / T
	if R < 1 {
		R = 1
	}
	res := &Result{
		Comp: make([]int32, n),
		T:    T, R: R,
	}
	if p.CountCoverage {
		res.Coverage = make([]int32, n)
	}
	// value[v] < 0 means v is alive (unassigned); otherwise it stores the
	// globally unique stamp of the BFS level that claimed it (stamps are
	// unique across iterations so same-level owner merging never confuses
	// claims from different iterations). ownerCenter[v] holds the winning
	// center's vertex id.
	value := make([]int32, n)
	ownerCenter := make([]int32, n)
	stamp := int32(0)
	for i := range value {
		value[i] = -1
		ownerCenter[i] = math.MaxInt32
	}
	aliveCount := n
	alive := make([]int, n)
	var iterStampEnd []int32 // stamp high-water mark after each iteration
	for t := 1; t <= T && aliveCount > 0; t++ {
		// Gather alive vertices.
		alive = alive[:0]
		for v := 0; v < n; v++ {
			if value[v] < 0 {
				alive = append(alive, v)
			}
		}
		aliveCount = len(alive)
		if aliveCount == 0 {
			break
		}
		rt := (T - t + 1) * R
		// Sample centers.
		var centers []int
		sigma := int(math.Ceil(p.SigmaScale * math.Pow(float64(n), float64(t)/float64(T)-1) *
			float64(aliveCount) * log2(n)))
		if t == T || sigma >= aliveCount {
			centers = alive
		} else {
			if sigma < 1 {
				sigma = 1
			}
			// Partial Fisher-Yates over a copy of the alive list.
			tmp := make([]int, aliveCount)
			copy(tmp, alive)
			for i := 0; i < sigma; i++ {
				j := i + rng.Intn(aliveCount-i)
				tmp[i], tmp[j] = tmp[j], tmp[i]
			}
			centers = tmp[:sigma]
		}
		jitter := make([]int, len(centers))
		for i := range jitter {
			jitter[i] = rng.Intn(R + 1)
		}
		if p.CountCoverage {
			countCoverage(p.Workers, g, value, centers, rt, res.Coverage)
		}
		claimed := jitteredBFS(p.Workers, g, value, ownerCenter, centers, jitter, rt, &stamp, rec)
		aliveCount -= claimed
		iterStampEnd = append(iterStampEnd, stamp)
	}
	// Densify component ids: one component per center that owns vertices.
	compOf := make(map[int32]int32)
	for v := 0; v < n; v++ {
		c := ownerCenter[v]
		if _, ok := compOf[c]; !ok {
			id := int32(len(compOf))
			compOf[c] = id
			res.Centers = append(res.Centers, c)
		}
		res.Comp[v] = compOf[c]
	}
	res.NumComp = len(res.Centers)
	res.CompIter = make([]int32, res.NumComp)
	for c, s := range res.Centers {
		st := value[s]
		it := int32(1)
		for i, end := range iterStampEnd {
			if st <= end {
				it = int32(i + 1)
				break
			}
		}
		res.CompIter[c] = it
	}
	return res
}

// bfsRoundState is the per-call scratch of jitteredBFS's deterministic
// frontier rounds: the round-winner owner (resolved by atomic minimum — the
// fixed min-center-id priority rule) and the round-winner ticket (the flat
// candidate index that gets to emit the vertex into the next frontier).
// Entries are idle (MaxInt32 / MaxInt64) except transiently during a round;
// the pack pass resets exactly the entries its round touched.
type bfsRoundState struct {
	owner  []int32
	ticket []int64
}

func newBFSRoundState(n int) *bfsRoundState {
	st := &bfsRoundState{
		owner:  make([]int32, n),
		ticket: make([]int64, n),
	}
	for i := range st.owner {
		st.owner[i] = math.MaxInt32
		st.ticket[i] = math.MaxInt64
	}
	return st
}

// jitteredBFS runs one iteration's delayed multi-source BFS on the alive
// subgraph (value[v] < 0). Center i activates at time jitter[i]; all growth
// stops after time rt. stamp supplies globally unique per-level claim ids.
// Returns the number of vertices claimed. workers selects the frontier-
// expansion parallelism (0 = GOMAXPROCS, 1 = sequential — no goroutines).
//
// Each level is a deterministic frontier round in the edgeMap-with-
// reservation style of GBBS: a reserve pass resolves every ownership
// conflict by the fixed (arrival level, min center id) rule, and a commit
// pass packs the claimed vertices into the next frontier with precomputed
// offsets (counts → prefix sum → conflict-free scatter), so the frontier's
// *order* — not just the final assignment — is identical for every worker
// count and schedule.
func jitteredBFS(workers int, g *graph.Graph, value, ownerCenter []int32, centers, jitter []int, rt int, stamp *int32, rec *wd.Recorder) int {
	// Bucket center activations by time.
	maxJ := 0
	for _, d := range jitter {
		if d > maxJ {
			maxJ = d
		}
	}
	activate := make([][]int, maxJ+1)
	for i, s := range centers {
		activate[jitter[i]] = append(activate[jitter[i]], s)
	}
	st := newBFSRoundState(g.N)
	var frontier []int
	claimed := 0
	var edgesSeen int64
	levels := 0
	for tau := 0; tau <= rt; tau++ {
		var act []int
		if tau < len(activate) {
			act = activate[tau]
		}
		if len(frontier) == 0 && len(act) == 0 {
			// Nothing active: jump straight to the next activation time, or
			// stop if none remains.
			next := -1
			for tt := tau + 1; tt < len(activate); tt++ {
				if len(activate[tt]) > 0 {
					next = tt
					break
				}
			}
			if next < 0 || next > rt {
				break
			}
			tau = next - 1
			continue
		}
		levels++
		*stamp++
		next := expandRound(workers, g, value, ownerCenter, st, frontier, act, *stamp, &edgesSeen)
		claimed += len(next)
		frontier = next
	}
	rec.Add(edgesSeen+int64(len(centers)), int64(levels))
	return claimed
}

// expandRound claims, at one BFS level, (a) activated centers not yet
// settled and (b) alive neighbors of the previous frontier, and returns the
// claimed vertices as the next frontier.
//
// The round's candidates form a flat index space: tickets [0, len(act))
// are the activations (each center its own owner candidate) and ticket
// len(act)+j is the j-th half-edge out of the frontier in (frontier
// position, adjacency slot) order. Three passes over that space:
//
//  1. reserve — for every candidate whose target is alive, fold the
//     candidate's owner into st.owner[v] and its ticket into st.ticket[v]
//     by (atomic) minimum. Min is commutative and associative, so the
//     winners are schedule-free: the owner implements the lexicographic
//     (arrival level, min center id) rule and the ticket elects one
//     deterministic emitter per claimed vertex.
//  2. count+scatter — the winning candidate of each vertex writes the
//     claim (value ← stamp, ownerCenter ← round winner) and packs v into
//     the next frontier at an offset precomputed by per-chunk counts and a
//     prefix sum, so the scatter is conflict-free and the output order is
//     the ticket order, independent of workers.
//  3. reset — the emitted vertices return their round state to idle.
func expandRound(workers int, g *graph.Graph, value, ownerCenter []int32, st *bfsRoundState, frontier, act []int, stamp int32, edgesSeen *int64) []int {
	nf := len(frontier)
	// Flat candidate space: activations first, then frontier half-edges in
	// (frontier position, adjacency slot) order. degOff[fi] is the flat
	// ticket of frontier[fi]'s first half-edge, biased by len(act).
	na := len(act)
	degs := make([]int, nf)
	par.ForW(workers, nf, func(fi int) {
		u := frontier[fi]
		degs[fi] = g.Off[u+1] - g.Off[u]
	})
	degOff := par.ScanW(workers, degs)
	totalDeg := degOff[nf]
	*edgesSeen += int64(totalDeg)
	total := na + totalDeg

	// scan walks candidates [lo, hi) in flat order, calling visit(j, v,
	// owner) for each claimable candidate (activations, then half-edges;
	// self-loops skipped). One binary search locates the chunk's first
	// frontier position; the walk advances it.
	scan := func(lo, hi int, visit func(j, v int, owner int32)) {
		j := lo
		for ; j < hi && j < na; j++ {
			visit(j, act[j], int32(act[j]))
		}
		if j >= hi {
			return
		}
		// Largest fi with degOff[fi] <= j-na: the frontier position whose
		// half-edge run contains the first edge candidate of this chunk.
		fi := sort.SearchInts(degOff, j-na+1) - 1
		for ; j < hi; j++ {
			e := j - na
			for degOff[fi+1] <= e {
				fi++
			}
			u := frontier[fi]
			v := g.Adj[g.Off[u]+(e-degOff[fi])]
			if v == u {
				continue
			}
			visit(j, v, ownerCenter[u])
		}
	}

	p := workers
	if p <= 0 {
		p = par.Workers()
	}
	if p == 1 || total < par.SequentialThreshold {
		// Sequential reference: same three passes, plain minima, no
		// goroutines (the Workers:1 contract).
		scan(0, total, func(j, v int, owner int32) {
			if value[v] >= 0 {
				return
			}
			if owner < st.owner[v] {
				st.owner[v] = owner
			}
			if int64(j) < st.ticket[v] {
				st.ticket[v] = int64(j)
			}
		})
		var next []int
		scan(0, total, func(j, v int, _ int32) {
			if st.ticket[v] == int64(j) {
				value[v] = stamp
				ownerCenter[v] = st.owner[v]
				next = append(next, v)
			}
		})
		for _, v := range next {
			st.owner[v] = math.MaxInt32
			st.ticket[v] = math.MaxInt64
		}
		return next
	}

	// The chunk decomposition only affects scheduling: the reserve pass is a
	// commutative min and the pack's scatter order is the flat candidate
	// order regardless of chunk boundaries.
	numChunks := p * 4
	if numChunks > total {
		numChunks = total
	}
	chunkSize := (total + numChunks - 1) / numChunks
	numChunks = (total + chunkSize - 1) / chunkSize
	bounds := func(c int) (int, int) {
		lo, hi := c*chunkSize, (c+1)*chunkSize
		if hi > total {
			hi = total
		}
		return lo, hi
	}

	// Pass 1: reserve. Alive targets (value[v] < 0; value is only written in
	// pass 2, after the barrier) min-merge the candidate's owner and ticket.
	par.TasksW(workers, numChunks, func(c int) {
		lo, hi := bounds(c)
		scan(lo, hi, func(j, v int, owner int32) {
			if value[v] >= 0 {
				return
			}
			atomicMin32(&st.owner[v], owner)
			atomicMin64(&st.ticket[v], int64(j))
		})
	})

	// Pass 2: count winners per chunk, prefix-sum, then conflict-free
	// scatter. A candidate wins iff its ticket is the vertex's round minimum
	// (unique per vertex; entries from earlier rounds are reset to idle, so
	// no stale ticket can match). The winner also writes the claim — a
	// single writer per vertex.
	counts := make([]int, numChunks)
	par.TasksW(workers, numChunks, func(c int) {
		lo, hi := bounds(c)
		cnt := 0
		scan(lo, hi, func(j, v int, _ int32) {
			if st.ticket[v] == int64(j) {
				cnt++
			}
		})
		counts[c] = cnt
	})
	offsets := par.ScanW(workers, counts)
	next := make([]int, offsets[numChunks])
	par.TasksW(workers, numChunks, func(c int) {
		lo, hi := bounds(c)
		at := offsets[c]
		scan(lo, hi, func(j, v int, _ int32) {
			if st.ticket[v] == int64(j) {
				value[v] = stamp
				ownerCenter[v] = st.owner[v]
				next[at] = v
				at++
			}
		})
	})
	// Pass 3: reset the touched round state (exactly the claimed vertices:
	// every reserved vertex was alive, so it was claimed this round).
	par.ForW(workers, len(next), func(i int) {
		v := next[i]
		st.owner[v] = math.MaxInt32
		st.ticket[v] = math.MaxInt64
	})
	return next
}

// atomicMin32 folds v into *addr by minimum with a CAS loop.
func atomicMin32(addr *int32, v int32) {
	for {
		cur := atomic.LoadInt32(addr)
		if cur <= v || atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}

// atomicMin64 folds v into *addr by minimum with a CAS loop.
func atomicMin64(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if cur <= v || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// countCoverage increments cover[v] for every alive vertex v within hop
// distance rt of each center, on the alive subgraph — the (s,t) pair count
// of Lemma 4.4. Runs one bounded BFS per center, in parallel across centers.
func countCoverage(workers int, g *graph.Graph, value []int32, centers []int, rt int, cover []int32) {
	par.ForW(workers, len(centers), func(ci int) {
		s := centers[ci]
		if value[s] >= 0 {
			return // dead center: its ball is empty by convention
		}
		dist := make(map[int]int, 64)
		dist[s] = 0
		frontier := []int{s}
		atomic.AddInt32(&cover[s], 1)
		for d := 1; d <= rt && len(frontier) > 0; d++ {
			var next []int
			for _, u := range frontier {
				for i := g.Off[u]; i < g.Off[u+1]; i++ {
					v := g.Adj[i]
					if value[v] >= 0 || v == u {
						continue
					}
					if _, seen := dist[v]; !seen {
						dist[v] = d
						atomic.AddInt32(&cover[v], 1)
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
	})
}

// CutStats reports the inter-component edges of a decomposition, overall and
// per edge class.
type CutStats struct {
	Total    int   // undirected edges with endpoints in different components
	PerClass []int // indexed by class
}

// CountCutW computes cut statistics for a decomposition on the given worker
// count. class[i] gives the class of edge i in [0, k); pass nil for
// single-class graphs.
func CountCutW(workers int, g *graph.Graph, comp []int32, class []int, k int) CutStats {
	if k < 1 {
		k = 1
	}
	st := CutStats{PerClass: make([]int, k)}
	m := len(g.Edges)
	// Parallel chunked count (integer sums: order-independent).
	p := workers
	if p <= 0 {
		p = par.Workers()
	}
	chunks := p * 4
	if chunks > m {
		chunks = m
	}
	if chunks == 0 {
		return st
	}
	chunk := (m + chunks - 1) / chunks
	numChunks := (m + chunk - 1) / chunk
	locals := make([][]int, numChunks)
	totals := make([]int, numChunks)
	par.ForW(workers, numChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > m {
			hi = m
		}
		l := make([]int, k)
		tot := 0
		for id := lo; id < hi; id++ {
			e := g.Edges[id]
			if comp[e.U] != comp[e.V] {
				tot++
				cl := 0
				if class != nil {
					cl = class[id]
				}
				l[cl]++
			}
		}
		locals[c] = l
		totals[c] = tot
	})
	for c := 0; c < numChunks; c++ {
		st.Total += totals[c]
		for i := 0; i < k; i++ {
			st.PerClass[i] += locals[c][i]
		}
	}
	return st
}

// PartitionResult couples a decomposition with its validation statistics.
type PartitionResult struct {
	*Result
	Cut    CutStats
	Trials int // splitGraph attempts consumed (≥ 1)
}

// Partition implements Algorithm 4.2: run SplitGraph treating all k classes
// as one, then validate that every class has at most
// |Ei|·CutConst·k·log^CutLogPower(n)/ρ edges between components, retrying
// with fresh randomness otherwise. class[i] ∈ [0,k) labels edge i; a nil
// class slice means k = 1.
//
// If MaxRetries attempts all fail validation, the best attempt (smallest
// maximum class violation ratio) is returned along with a non-nil error;
// callers at practical scales treat the threshold as advisory.
func Partition(g *graph.Graph, class []int, k int, rho int, p Params, rng *rand.Rand, rec *wd.Recorder) (*PartitionResult, error) {
	if k < 1 {
		k = 1
	}
	classSize := make([]int, k)
	if class == nil {
		classSize[0] = len(g.Edges)
	} else {
		for _, c := range class {
			classSize[c]++
		}
	}
	threshold := func(sz int) float64 {
		return float64(sz) * p.CutConst * float64(k) *
			math.Pow(log2(g.N), float64(p.CutLogPower)) / float64(rho)
	}
	maxRetries := p.MaxRetries
	if maxRetries < 1 {
		maxRetries = 1
	}
	var best *PartitionResult
	bestRatio := math.Inf(1)
	for trial := 1; trial <= maxRetries; trial++ {
		res := SplitGraph(g, rho, p, rng, rec)
		cut := CountCutW(p.Workers, g, res.Comp, class, k)
		worst := 0.0
		for i := 0; i < k; i++ {
			if classSize[i] == 0 {
				continue
			}
			th := threshold(classSize[i])
			ratio := 0.0
			if th > 0 {
				ratio = float64(cut.PerClass[i]) / th
			} else if cut.PerClass[i] > 0 {
				ratio = math.Inf(1)
			}
			if ratio > worst {
				worst = ratio
			}
		}
		pr := &PartitionResult{Result: res, Cut: cut, Trials: trial}
		if worst <= 1 {
			return pr, nil
		}
		if worst < bestRatio {
			bestRatio = worst
			best = pr
		}
	}
	return best, fmt.Errorf("decomp: validation failed after %d trials (worst ratio %.3g)", maxRetries, bestRatio)
}

// StrongRadius returns, for each component, the hop eccentricity of its
// center within the induced subgraph — the quantity bounded by ρ in
// Theorem 4.1(2). O(n+m) total via one BFS per component on the component-
// restricted adjacency.
func StrongRadius(g *graph.Graph, res *Result) []int {
	radii := make([]int, res.NumComp)
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	for c := 0; c < res.NumComp; c++ {
		s := int(res.Centers[c])
		dist[s] = 0
		frontier := []int{s}
		maxd := 0
		var visited []int
		visited = append(visited, s)
		for d := int32(1); len(frontier) > 0; d++ {
			var next []int
			for _, u := range frontier {
				for i := g.Off[u]; i < g.Off[u+1]; i++ {
					v := g.Adj[i]
					if res.Comp[v] != res.Comp[s] || dist[v] >= 0 {
						continue
					}
					dist[v] = d
					maxd = int(d)
					next = append(next, v)
					visited = append(visited, v)
				}
			}
			frontier = next
		}
		radii[c] = maxd
		for _, v := range visited {
			dist[v] = -1
		}
	}
	return radii
}
