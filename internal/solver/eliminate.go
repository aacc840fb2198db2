// Package solver implements the paper's Section 6: the parallel SDD solver
// built from a preconditioner chain (Definition 6.3) whose levels are
// produced by incremental sparsification (Lemma 6.1) over low-stretch
// subgraphs (Theorem 5.9) and shrunk by parallel greedy elimination
// (Lemma 6.5), solved by recursive preconditioned Chebyshev iteration with
// a sparse LDLᵀ factorization at the bottom (Fact 6.4's direct solve).
package solver

import (
	"fmt"
	"math/rand"

	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/par"
	"parlap/internal/wd"
)

// ElimKind distinguishes the three elimination operations. It is exported
// (with its constants) so the chain snapshot codec can encode op logs with a
// stable one-byte wire form.
type ElimKind uint8

const (
	ElimDeg0 ElimKind = iota // isolated vertex: x_v := 0
	ElimDeg1                 // leaf: x_v = x_a + b_v/w1
	ElimDeg2                 // series splice: x_v = (w1·x_a + w2·x_b + b_v)/(w1+w2)
)

// ElimOp is one recorded partial-Cholesky elimination. Ops within a round
// touch pairwise non-adjacent vertices, so each round's back-substitutions
// are independent (parallelizable).
type ElimOp struct {
	Kind   ElimKind
	V      int32 // eliminated vertex (original numbering of the input graph)
	A, B   int32 // neighbors (deg1 uses A; deg2 uses A and B)
	W1, W2 float64
}

// Elimination is the result of GreedyElimination: the reduced graph, the
// vertex mapping, and the replayable elimination log.
//
// Alongside the op log it carries an owner-computes reverse index: for each
// round, the ops' scatter targets (the op.A/op.B neighbors that receive
// forwarded b-mass) grouped by receiving vertex, in op order within each
// group. ForwardRHS uses it to let every receiver accumulate its own round
// contributions in parallel — two ops sharing a neighbor no longer force a
// sequential scatter — while reproducing the sequential op-order float sums
// bitwise (per receiver, the accumulation order is unchanged).
type Elimination struct {
	OrigN    int
	Ops      []ElimOp
	RoundEnd []int // Ops prefix length after each round
	Keep     []int // reduced index -> original vertex
	Pos      []int // original vertex -> reduced index (-1 if eliminated)
	Reduced  *graph.Graph
	Rounds   int

	// Owner-computes reverse index, flattened across rounds: round ri owns
	// receiver groups recvRoundEnd[ri-1]..recvRoundEnd[ri]; group gi receives
	// at vertex recvVert[gi] the contributions of items
	// recvItemEnd[gi-1]..recvItemEnd[gi], each naming an op (recvOp, a global
	// Ops index) and carrying the precomputed forwarding coefficient
	// (recvCoef: 1 for a rake, wᵢ/(w₁+w₂) for the receiver's side of a
	// splice) so the scatter is one multiply-add per item with no op load.
	// Items within a group are in ascending op order.
	recvRoundEnd []int32
	recvVert     []int32
	recvItemEnd  []int32
	recvOp       []int32
	recvCoef     []float64
}

// coin3 is a deterministic 1/3-probability coin: a splitmix64-style hash of
// (seed, v). Using a counter-free hash instead of a shared rng stream lets
// the per-round marking run in parallel without changing its outcome.
func coin3(seed uint64, v int32) bool {
	x := seed ^ (uint64(uint32(v))+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x%3 == 0
}

// recvItem is one scatter contribution during reverse-index construction.
type recvItem struct {
	tgt  int32   // receiving vertex
	op   int32   // global Ops index
	coef float64 // forwarding coefficient for this (op, target) pair
}

// GreedyElimination performs the parallel partial Cholesky factorization of
// Lemma 6.5 on a Laplacian graph with the default worker count; see
// GreedyEliminationW.
func GreedyElimination(g *graph.Graph, rng *rand.Rand, rec *wd.Recorder) *Elimination {
	return GreedyEliminationW(0, g, rng, rec)
}

// GreedyEliminationW performs the parallel partial Cholesky factorization of
// Lemma 6.5 on a Laplacian graph (weights are conductances): repeatedly
// eliminate all degree-≤1 vertices (rake) and a random independent set of
// degree-2 vertices (compress, via the paper's 1/3-coin marking), recording
// every operation for exact back-substitution. Parallel edges are merged and
// self-loops dropped on entry.
//
// The working graph is a slot adjacency: vertex v owns adj[off[v]:off[v+1]]
// (its CSR row in g), of which the first deg[v] entries are its current
// neighbours in ascending order with merged weights. A splice replaces one
// neighbour by at most one other, so degrees never grow and every update
// fits the slot it patches. Only the neighbours of a round's eliminated
// vertices change, and they are exactly the receivers of the round's
// reverse index, so each receiver rewrites its own slot from its own group
// (owner computes, ops in ascending order): a round costs the candidates it
// scans plus the adjacency it touches, which is what the recorder is
// charged — O(n+m) in total, one depth unit per round.
//
// The acceptance pass computes the lexicographically-first independent set
// of willing vertices in one parallel sweep: two willing degree-2 vertices
// are never adjacent (mutual heads unmark both), so conflict chains among
// willing vertices have at most three vertices and a depth-2 neighbor
// lookahead decides every vertex exactly as the sequential greedy scan would.
//
// The coins are a hash of a per-round seed drawn from rng, so the op log is
// identical for every worker count given the same rng state; merged edge
// weights are too: an edge's weight is its surviving weight plus the round's
// splices onto it in op order, summed alike at both endpoints.
func GreedyEliminationW(workers int, g *graph.Graph, rng *rand.Rand, rec *wd.Recorder) *Elimination {
	n := g.N
	// Normalize each row where it lies: drop self-loops and zero weights,
	// sort by neighbour, sum parallels in adjacency (= edge-list) order.
	off := g.Off
	adj := make([]matrix.RowEntry, len(g.Adj))
	deg := make([]int32, n)
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := adj[off[u]:off[u+1]]
			k := 0
			for i := off[u]; i < off[u+1]; i++ {
				if v, w := g.Adj[i], g.Wt[i]; v != u && w != 0 {
					row[k] = matrix.RowEntry{Col: int32(v), Val: w}
					k++
				}
			}
			deg[u] = int32(matrix.SortMergeRow(row[:k]))
		}
	})
	rec.Add(int64(n+len(adj)), 1)
	nbrs := func(v int) []matrix.RowEntry { return adj[off[v] : off[v]+int(deg[v])] }

	el := &Elimination{OrigN: n, Pos: make([]int, n)}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	heads := make([]bool, n)
	willing := make([]bool, n)
	accepted := make([]bool, n)
	// Candidates: alive vertices of degree ≤ 2, ascending. Kept across
	// rounds — a candidate stays one until it is eliminated.
	cand := par.FilterIndexW(workers, n, func(v int) bool { return deg[v] <= 2 })
	for len(cand) > 0 {
		// Coin flips for degree-2 vertices (the paper's independent-set
		// marking); degree ≤ 1 vertices are always willing. The round seed
		// is drawn sequentially so the rng stream stays schedule-free.
		roundSeed := uint64(rng.Int63())
		par.ForW(workers, len(cand), func(i int) {
			v := cand[i]
			if deg[v] == 2 {
				heads[v] = coin3(roundSeed, int32(v))
			}
		})
		par.ForW(workers, len(cand), func(i int) {
			v := cand[i]
			if deg[v] < 2 {
				willing[v] = true
				return
			}
			if !heads[v] {
				return
			}
			for _, e := range nbrs(v) {
				if deg[e.Col] == 2 && heads[e.Col] {
					return // neighbor flipped heads too: unmarked
				}
			}
			willing[v] = true
		})
		// Acceptance: the lexicographically-first MIS of the willing set,
		// in one parallel pass. v is rejected by a willing neighbor u < v
		// unless u is itself rejected by a willing neighbor w < u (w ≠ v);
		// since willing conflict chains have ≤ 3 vertices, this depth-2
		// rule terminates the recursion exactly.
		par.ForW(workers, len(cand), func(i int) {
			v := cand[i]
			if !willing[v] {
				return
			}
			ok := true
			for _, e := range nbrs(v) {
				u := int(e.Col)
				if !willing[u] || u >= v {
					continue
				}
				uAccepted := true
				for _, f := range nbrs(u) {
					if w := int(f.Col); w != v && w < u && willing[w] {
						uAccepted = false
						break
					}
				}
				if uAccepted {
					ok = false
					break
				}
			}
			accepted[v] = ok
		})
		accIdx := par.FilterIndexW(workers, len(cand), func(i int) bool {
			return accepted[cand[i]]
		})
		if len(accIdx) == 0 {
			// No degree-≤1 vertices and every degree-2 coin flip failed:
			// reset the marks and re-flip with a fresh seed.
			par.ForW(workers, len(cand), func(i int) {
				v := cand[i]
				heads[v], willing[v] = false, false
			})
			rec.Add(int64(len(cand)), 1)
			continue
		}
		// Emit the round's ops (accepted vertices in ascending id order;
		// adjacency is sorted, so deg-2 neighbor order is canonical A < B).
		base := len(el.Ops)
		el.Ops = append(el.Ops, make([]ElimOp, len(accIdx))...)
		ops := el.Ops[base:]
		par.ForW(workers, len(accIdx), func(k int) {
			v := cand[accIdx[k]]
			switch nb := nbrs(v); len(nb) {
			case 0:
				ops[k] = ElimOp{Kind: ElimDeg0, V: int32(v)}
			case 1:
				ops[k] = ElimOp{Kind: ElimDeg1, V: int32(v), A: nb[0].Col, W1: nb[0].Val}
			case 2:
				ops[k] = ElimOp{Kind: ElimDeg2, V: int32(v),
					A: nb[0].Col, B: nb[1].Col, W1: nb[0].Val, W2: nb[1].Val}
			}
			alive[v] = false
		})
		el.appendRecvRound(workers, base, ops)

		// Patch the receivers' slots; wasDeg keeps each receiver's degree
		// from before the round.
		gLo, gHi := el.recvBounds(el.Rounds)
		wasDeg := make([]int32, gHi-gLo)
		par.ForChunkedW(workers, gHi-gLo, func(lo, hi int) {
			var adds, out []matrix.RowEntry
			for j := lo; j < hi; j++ {
				t := el.recvVert[gLo+j]
				wasDeg[j] = deg[t]
				adds, out = el.spliceInto(gLo+j, nbrs(int(t)), adds[:0], out[:0])
				deg[t] = int32(copy(adj[off[t]:], out))
			}
		})
		// Adjacency touched: each receiver's row plus the items applied to it.
		touched := par.SumIntW(workers, gHi-gLo, func(j int) int {
			iLo, iHi := el.itemBounds(gLo + j)
			return int(wasDeg[j]) + int(iHi-iLo)
		})

		// Next round's candidates: this round's less the eliminated, merged
		// (both ascending) with the receivers that just dropped to degree ≤ 2.
		var fresh []int
		for j, was := range wasDeg {
			if t := int(el.recvVert[gLo+j]); was > 2 && deg[t] <= 2 {
				fresh = append(fresh, t)
			}
		}
		next := make([]int, 0, len(cand)-len(accIdx)+len(fresh))
		f := 0
		for _, v := range cand {
			if accepted[v] {
				continue
			}
			for ; f < len(fresh) && fresh[f] < v; f++ {
				next = append(next, fresh[f])
			}
			next = append(next, v)
		}
		next = append(next, fresh[f:]...)
		// Reset the per-round marks (only candidate slots were written).
		par.ForW(workers, len(cand), func(i int) {
			v := cand[i]
			heads[v], willing[v], accepted[v] = false, false, false
		})
		el.RoundEnd = append(el.RoundEnd, len(el.Ops))
		el.Rounds++
		rec.Add(int64(len(cand)+len(ops)+touched), 1)
		cand = next
	}
	// Build the reduced graph: every remaining edge joins two kept vertices.
	// Walking the kept vertices' rows for neighbours above them lists the
	// edges in (u, v) order.
	el.Keep = par.FilterIndexW(workers, n, func(v int) bool { return alive[v] })
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			el.Pos[v] = -1
		}
	})
	par.ForW(workers, len(el.Keep), func(j int) {
		el.Pos[el.Keep[j]] = j
	})
	upper := make([]int, len(el.Keep))
	par.ForW(workers, len(el.Keep), func(j int) {
		u := el.Keep[j]
		for _, e := range nbrs(u) {
			if int(e.Col) > u {
				upper[j]++
			}
		}
	})
	edgeOff := par.ScanW(workers, upper)
	redEdges := make([]graph.Edge, edgeOff[len(el.Keep)])
	par.ForW(workers, len(el.Keep), func(j int) {
		u, at := el.Keep[j], edgeOff[j]
		for _, e := range nbrs(u) {
			if int(e.Col) > u {
				redEdges[at] = graph.Edge{U: j, V: el.Pos[e.Col], W: e.Val}
				at++
			}
		}
	})
	rec.Add(int64(2*n+2*len(redEdges)), 1)
	el.Reduced = graph.FromEdgesW(workers, len(el.Keep), redEdges)
	return el
}

// spliceInto applies receiver group gi of the round just appended to the
// receiver's sorted adjacency row: every op in the group removes its
// eliminated vertex, and a splice adds (or adds onto) the edge to the op's
// other neighbour with the series conductance w₁w₂/(w₁+w₂). Additions onto
// one neighbour accumulate after the surviving weight in op order — the
// same sequence at both endpoints of the edge, so the two copies agree
// bitwise. The merged row is returned in out (never longer than row: each
// addition comes with a removal); adds is scratch, returned for reuse.
func (el *Elimination) spliceInto(gi int, row, adds, out []matrix.RowEntry) (_, _ []matrix.RowEntry) {
	t := el.recvVert[gi]
	it, iHi := el.itemBounds(gi)
	for i := it; i < iHi; i++ {
		if op := &el.Ops[el.recvOp[i]]; op.Kind == ElimDeg2 {
			other := op.A
			if other == t {
				other = op.B
			}
			adds = append(adds, matrix.RowEntry{Col: other, Val: op.W1 * op.W2 / (op.W1 + op.W2)})
		}
	}
	matrix.SortRow(adds)
	// Three-way merge. The group's ops are in ascending order of eliminated
	// vertex and each of them is in row, so the next removal is always the
	// first pending one.
	i, a := 0, 0
	for i < len(row) || a < len(adds) {
		if i < len(row) && it < iHi && row[i].Col == el.Ops[el.recvOp[it]].V {
			i++
			it++
			continue
		}
		var e matrix.RowEntry
		if a == len(adds) || (i < len(row) && row[i].Col <= adds[a].Col) {
			e = row[i]
			i++
		} else {
			e = adds[a]
			a++
		}
		for ; a < len(adds) && adds[a].Col == e.Col; a++ {
			e.Val += adds[a].Val
		}
		out = append(out, e)
	}
	return adds, out
}

// appendRecvRound extends the owner-computes reverse index with one round:
// the round's scatter targets, grouped by receiving vertex with items in
// ascending op order. base is the round's first global op index.
func (el *Elimination) appendRecvRound(workers, base int, ops []ElimOp) {
	cnt := make([]int, len(ops))
	par.ForW(workers, len(ops), func(k int) {
		switch ops[k].Kind {
		case ElimDeg1:
			cnt[k] = 1
		case ElimDeg2:
			cnt[k] = 2
		}
	})
	itemOff := par.ScanW(workers, cnt)
	items := make([]recvItem, itemOff[len(ops)])
	par.ForW(workers, len(ops), func(k int) {
		at := itemOff[k]
		op := &ops[k]
		switch op.Kind {
		case ElimDeg1:
			items[at] = recvItem{op.A, int32(base + k), 1}
		case ElimDeg2:
			s := op.W1 + op.W2
			items[at] = recvItem{op.A, int32(base + k), op.W1 / s}
			items[at+1] = recvItem{op.B, int32(base + k), op.W2 / s}
		}
	})
	par.SortW(workers, items, func(a, b recvItem) bool {
		if a.tgt != b.tgt {
			return a.tgt < b.tgt
		}
		return a.op < b.op
	})
	groups := par.FilterIndexW(workers, len(items), func(i int) bool {
		return i == 0 || items[i].tgt != items[i-1].tgt
	})
	itemBase := int32(len(el.recvOp))
	for _, gi := range groups {
		el.recvVert = append(el.recvVert, items[gi].tgt)
	}
	for j := range groups {
		hi := len(items)
		if j+1 < len(groups) {
			hi = groups[j+1]
		}
		el.recvItemEnd = append(el.recvItemEnd, itemBase+int32(hi))
	}
	for i := range items {
		el.recvOp = append(el.recvOp, items[i].op)
		el.recvCoef = append(el.recvCoef, items[i].coef)
	}
	el.recvRoundEnd = append(el.recvRoundEnd, int32(len(el.recvVert)))
}

// roundBounds returns the Ops index range of round ri.
func (el *Elimination) roundBounds(ri int) (lo, hi int) {
	lo = 0
	if ri > 0 {
		lo = el.RoundEnd[ri-1]
	}
	return lo, el.RoundEnd[ri]
}

// recvBounds returns the receiver-group index range of round ri.
func (el *Elimination) recvBounds(ri int) (lo, hi int) {
	lo = 0
	if ri > 0 {
		lo = int(el.recvRoundEnd[ri-1])
	}
	return lo, int(el.recvRoundEnd[ri])
}

// itemBounds returns the reverse-index item range of group gi.
func (el *Elimination) itemBounds(gi int) (lo, hi int32) {
	lo = 0
	if gi > 0 {
		lo = el.recvItemEnd[gi-1]
	}
	return lo, el.recvItemEnd[gi]
}

// ForwardRHS pushes a right-hand side through the elimination with the
// default worker count; see ForwardRHSW.
func (el *Elimination) ForwardRHS(b []float64) (reduced, carry []float64) {
	return el.ForwardRHSW(0, b)
}

// ForwardRHSW pushes a right-hand side through the elimination: eliminated
// vertices forward their b-mass to their neighbors. It returns the reduced
// right-hand side and the per-op carried values needed by BackSolve.
// The input b is not modified.
//
// Within a round the eliminated vertices form an independent set, and a
// round's scatter targets (neighbors) are never that round's eliminated
// vertices — so the carry reads of a round see no same-round writes and run
// in parallel. The scatter runs in parallel too, over the owner-computes
// reverse index: each receiving vertex accumulates its own incoming
// contributions (carry × precomputed coefficient) in ascending op order —
// a fixed summation order that makes the result bitwise identical for
// every worker count, and matches what a sequential op-order scatter of
// the same contributions would produce.
func (el *Elimination) ForwardRHSW(workers int, b []float64) (reduced, carry []float64) {
	work := make([]float64, el.OrigN)
	carry = make([]float64, len(el.Ops))
	reduced = make([]float64, len(el.Keep))
	el.ForwardRHSIntoW(workers, b, work, carry, reduced)
	return reduced, carry
}

// ForwardRHSIntoW is ForwardRHSW into caller-provided buffers: work (length
// OrigN), carry (length len(Ops)) and reduced (length len(Keep)), each fully
// overwritten. b is not modified. At workers==1 the replay runs as plain
// loops — no closures, no goroutines, no allocation — with arithmetic
// bitwise identical to every parallel schedule (the scatter order per
// receiver is fixed by the reverse index either way).
func (el *Elimination) ForwardRHSIntoW(workers int, b, work, carry, reduced []float64) {
	copy(work, b)
	seq := par.Sequential(workers)
	for ri := 0; ri < el.Rounds; ri++ {
		lo, hi := el.roundBounds(ri)
		ops := el.Ops[lo:hi]
		gLo, gHi := el.recvBounds(ri)
		if seq {
			for k := range ops {
				carry[lo+k] = work[ops[k].V]
			}
			for g := gLo; g < gHi; g++ {
				acc := work[el.recvVert[g]]
				iLo, iHi := el.itemBounds(g)
				for it := iLo; it < iHi; it++ {
					acc += carry[el.recvOp[it]] * el.recvCoef[it]
				}
				work[el.recvVert[g]] = acc
			}
			continue
		}
		par.ForChunkedW(workers, len(ops), func(clo, chi int) {
			for k := clo; k < chi; k++ {
				carry[lo+k] = work[ops[k].V]
			}
		})
		par.ForChunkedW(workers, gHi-gLo, func(clo, chi int) {
			for g := gLo + clo; g < gLo+chi; g++ {
				acc := work[el.recvVert[g]]
				iLo, iHi := el.itemBounds(g)
				for it := iLo; it < iHi; it++ {
					acc += carry[el.recvOp[it]] * el.recvCoef[it]
				}
				work[el.recvVert[g]] = acc
			}
		})
	}
	if seq {
		for j := range el.Keep {
			reduced[j] = work[el.Keep[j]]
		}
		return
	}
	par.ForChunkedW(workers, len(el.Keep), func(clo, chi int) {
		for j := clo; j < chi; j++ {
			reduced[j] = work[el.Keep[j]]
		}
	})
}

// BackSolve extends a solution of the reduced system with the default worker
// count; see BackSolveW.
func (el *Elimination) BackSolve(xReduced, carry []float64) []float64 {
	return el.BackSolveW(0, xReduced, carry)
}

// BackSolveW extends a solution of the reduced system to the full system by
// replaying the elimination log in reverse, round by round. carry must come
// from the ForwardRHS call for the same right-hand side.
//
// The reverse replay is owner-computes by construction: each op writes only
// x[op.V] and gathers its neighbor reads (x[op.A], x[op.B]) from vertices
// eliminated in later rounds or kept — already final when the round replays
// — so ops within a round run in parallel, realizing the Lemma 6.5 claim
// that rounds are the only sequential dependency.
func (el *Elimination) BackSolveW(workers int, xReduced, carry []float64) []float64 {
	x := make([]float64, el.OrigN)
	el.BackSolveIntoW(workers, xReduced, carry, x)
	return x
}

// BackSolveIntoW is BackSolveW into a caller-provided x (length OrigN, fully
// overwritten: every vertex is either kept or eliminated by exactly one op).
// At workers==1 the reverse replay runs as plain loops with no allocation.
func (el *Elimination) BackSolveIntoW(workers int, xReduced, carry, x []float64) {
	seq := par.Sequential(workers)
	if seq {
		for j := range el.Keep {
			x[el.Keep[j]] = xReduced[j]
		}
	} else {
		par.ForChunkedW(workers, len(el.Keep), func(clo, chi int) {
			for j := clo; j < chi; j++ {
				x[el.Keep[j]] = xReduced[j]
			}
		})
	}
	for ri := el.Rounds - 1; ri >= 0; ri-- {
		lo, hi := el.roundBounds(ri)
		ops := el.Ops[lo:hi]
		if seq {
			for k := range ops {
				op := &ops[k]
				switch op.Kind {
				case ElimDeg0:
					x[op.V] = 0
				case ElimDeg1:
					x[op.V] = x[op.A] + carry[lo+k]/op.W1
				case ElimDeg2:
					x[op.V] = (op.W1*x[op.A] + op.W2*x[op.B] + carry[lo+k]) / (op.W1 + op.W2)
				}
			}
			continue
		}
		par.ForChunkedW(workers, len(ops), func(clo, chi int) {
			for k := clo; k < chi; k++ {
				op := &ops[k]
				switch op.Kind {
				case ElimDeg0:
					x[op.V] = 0
				case ElimDeg1:
					x[op.V] = x[op.A] + carry[lo+k]/op.W1
				case ElimDeg2:
					x[op.V] = (op.W1*x[op.A] + op.W2*x[op.B] + carry[lo+k]) / (op.W1 + op.W2)
				}
			}
		})
	}
}

// ForwardRHSBlockIntoW is ForwardRHSIntoW over contiguous matrix.Block
// multi-vectors: b and work are OrigN×k, carry is len(Ops)×k (row = op
// index), reduced is len(Keep)×k. One replay of the op log serves all k
// lanes, with the k values per vertex/op adjacent in memory; lane c is
// bitwise identical to ForwardRHSIntoW on lane c. At workers==1 the replay
// runs as plain loops with no allocation.
func (el *Elimination) ForwardRHSBlockIntoW(workers int, b, work, carry, reduced *matrix.Block) {
	kcols := b.K()
	if kcols == 1 {
		el.ForwardRHSIntoW(workers, b.Vec(), work.Vec(), carry.Vec(), reduced.Vec())
		return
	}
	work.CopyFrom(b)
	// The sequential fast path inlines every loop: a closure passed to
	// par.ForChunkedW escapes and heap-allocates at its declaration even if
	// that branch never runs, which would break the allocation wall.
	seq := par.Sequential(workers)
	for ri := 0; ri < el.Rounds; ri++ {
		lo, hi := el.roundBounds(ri)
		ops := el.Ops[lo:hi]
		gLo, gHi := el.recvBounds(ri)
		if seq {
			for k := range ops {
				copy(carry.Row(lo+k), work.Row(int(ops[k].V)))
			}
			for g := gLo; g < gHi; g++ {
				wrow := work.Row(int(el.recvVert[g]))
				iLo, iHi := el.itemBounds(g)
				for it := iLo; it < iHi; it++ {
					crow := carry.Row(int(el.recvOp[it]))
					coef := el.recvCoef[it]
					for c := 0; c < kcols; c++ {
						wrow[c] += crow[c] * coef
					}
				}
			}
			continue
		}
		par.ForChunkedW(workers, len(ops), func(clo, chi int) {
			for k := clo; k < chi; k++ {
				copy(carry.Row(lo+k), work.Row(int(ops[k].V)))
			}
		})
		par.ForChunkedW(workers, gHi-gLo, func(clo, chi int) {
			for g := gLo + clo; g < gLo+chi; g++ {
				wrow := work.Row(int(el.recvVert[g]))
				iLo, iHi := el.itemBounds(g)
				for it := iLo; it < iHi; it++ {
					crow := carry.Row(int(el.recvOp[it]))
					coef := el.recvCoef[it]
					for c := 0; c < kcols; c++ {
						wrow[c] += crow[c] * coef
					}
				}
			}
		})
	}
	if seq {
		for j := range el.Keep {
			copy(reduced.Row(j), work.Row(int(el.Keep[j])))
		}
		return
	}
	par.ForChunkedW(workers, len(el.Keep), func(clo, chi int) {
		for j := clo; j < chi; j++ {
			copy(reduced.Row(j), work.Row(int(el.Keep[j])))
		}
	})
}

// BackSolveBlockIntoW is BackSolveIntoW over contiguous matrix.Block
// multi-vectors: xReduced is len(Keep)×k, carry is len(Ops)×k (from
// ForwardRHSBlockIntoW for the same right-hand sides), x is OrigN×k, fully
// overwritten. Lane c is bitwise identical to BackSolveIntoW on lane c; at
// workers==1 the reverse replay runs as plain loops with no allocation.
func (el *Elimination) BackSolveBlockIntoW(workers int, xReduced, carry, x *matrix.Block) {
	kcols := xReduced.K()
	if kcols == 1 {
		el.BackSolveIntoW(workers, xReduced.Vec(), carry.Vec(), x.Vec())
		return
	}
	// Closures only on the parallel branch: an escaping func value allocates
	// at declaration, which the sequential allocation wall forbids.
	seq := par.Sequential(workers)
	if seq {
		for j := range el.Keep {
			copy(x.Row(int(el.Keep[j])), xReduced.Row(j))
		}
	} else {
		par.ForChunkedW(workers, len(el.Keep), func(clo, chi int) {
			for j := clo; j < chi; j++ {
				copy(x.Row(int(el.Keep[j])), xReduced.Row(j))
			}
		})
	}
	for ri := el.Rounds - 1; ri >= 0; ri-- {
		lo, hi := el.roundBounds(ri)
		ops := el.Ops[lo:hi]
		if seq {
			el.backSolveBlockOps(ops, lo, 0, len(ops), kcols, carry, x)
			continue
		}
		par.ForChunkedW(workers, len(ops), func(clo, chi int) {
			el.backSolveBlockOps(ops, lo, clo, chi, kcols, carry, x)
		})
	}
}

// backSolveBlockOps replays ops[clo:chi] of one elimination round across all
// k lanes; shared by the sequential and chunk-parallel branches of
// BackSolveBlockIntoW.
func (el *Elimination) backSolveBlockOps(ops []ElimOp, lo, clo, chi, kcols int, carry, x *matrix.Block) {
	for k := clo; k < chi; k++ {
		op := &ops[k]
		xv := x.Row(int(op.V))
		switch op.Kind {
		case ElimDeg0:
			for c := 0; c < kcols; c++ {
				xv[c] = 0
			}
		case ElimDeg1:
			xa := x.Row(int(op.A))
			crow := carry.Row(lo + k)
			for c := 0; c < kcols; c++ {
				xv[c] = xa[c] + crow[c]/op.W1
			}
		case ElimDeg2:
			xa, xb := x.Row(int(op.A)), x.Row(int(op.B))
			crow := carry.Row(lo + k)
			for c := 0; c < kcols; c++ {
				xv[c] = (op.W1*xa[c] + op.W2*xb[c] + crow[c]) / (op.W1 + op.W2)
			}
		}
	}
}

// ReindexW rebuilds every derived structure of an elimination whose OrigN,
// Ops and RoundEnd came from a snapshot: the Keep/Pos vertex maps, the round
// count, and the owner-computes reverse index. The replay runs the exact
// passes GreedyEliminationW ran at build time (appendRecvRound per round,
// ascending-vertex Keep), so the reconstructed index — including the
// recomputed forwarding coefficients wᵢ/(w₁+w₂) from the ops' exact weight
// bits — is bit-identical to the one the original elimination carried, and
// ForwardRHS/BackSolve replay bitwise. It validates the op log (vertex
// ranges, monotone round boundaries, no vertex eliminated twice) and returns
// an error instead of building an index that could panic or scatter out of
// bounds. Reduced is left untouched; callers attach the next level's graph.
func (el *Elimination) ReindexW(workers int) error {
	n := el.OrigN
	if n < 0 {
		return fmt.Errorf("solver: elimination has negative vertex count %d", n)
	}
	if len(el.RoundEnd) > 0 && el.RoundEnd[len(el.RoundEnd)-1] != len(el.Ops) {
		return fmt.Errorf("solver: elimination round boundaries end at %d, op log has %d ops", el.RoundEnd[len(el.RoundEnd)-1], len(el.Ops))
	}
	if len(el.RoundEnd) == 0 && len(el.Ops) != 0 {
		return fmt.Errorf("solver: elimination has %d ops but no round boundaries", len(el.Ops))
	}
	prev := 0
	for ri, end := range el.RoundEnd {
		if end < prev || end > len(el.Ops) {
			return fmt.Errorf("solver: elimination round %d boundary %d out of order", ri, end)
		}
		prev = end
	}
	eliminated := make([]bool, n)
	for i := range el.Ops {
		op := &el.Ops[i]
		if op.V < 0 || int(op.V) >= n {
			return fmt.Errorf("solver: elimination op %d eliminates out-of-range vertex %d", i, op.V)
		}
		if eliminated[op.V] {
			return fmt.Errorf("solver: elimination op %d eliminates vertex %d twice", i, op.V)
		}
		eliminated[op.V] = true
		switch op.Kind {
		case ElimDeg0:
		case ElimDeg1:
			if op.A < 0 || int(op.A) >= n || op.W1 == 0 {
				return fmt.Errorf("solver: elimination op %d has invalid rake target/weight", i)
			}
		case ElimDeg2:
			if op.A < 0 || int(op.A) >= n || op.B < 0 || int(op.B) >= n || op.W1+op.W2 == 0 {
				return fmt.Errorf("solver: elimination op %d has invalid splice targets/weights", i)
			}
		default:
			return fmt.Errorf("solver: elimination op %d has unknown kind %d", i, op.Kind)
		}
	}
	el.Rounds = len(el.RoundEnd)
	el.Keep = par.FilterIndexW(workers, n, func(v int) bool { return !eliminated[v] })
	el.Pos = make([]int, n)
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			el.Pos[v] = -1
		}
	})
	par.ForW(workers, len(el.Keep), func(j int) {
		el.Pos[el.Keep[j]] = j
	})
	el.recvRoundEnd, el.recvVert, el.recvItemEnd = nil, nil, nil
	el.recvOp, el.recvCoef = nil, nil
	for ri := 0; ri < el.Rounds; ri++ {
		lo, hi := el.roundBounds(ri)
		el.appendRecvRound(workers, lo, el.Ops[lo:hi])
	}
	return nil
}

// MemoryBytes estimates the elimination's retained footprint: the op log,
// the round/vertex maps and the owner-computes reverse index. The reduced
// graph is excluded — chains account it as the next level's graph.
func (el *Elimination) MemoryBytes() int64 {
	b := int64(len(el.Ops)) * 32
	b += int64(len(el.RoundEnd)+len(el.Keep)+len(el.Pos)) * 8
	b += int64(len(el.recvRoundEnd)+len(el.recvVert)+len(el.recvItemEnd)+len(el.recvOp)) * 4
	b += int64(len(el.recvCoef)) * 8
	return b
}
