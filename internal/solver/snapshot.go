package solver

import (
	"fmt"

	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// This file is the solver half of chain persistence (the serving half and
// the byte-level container live in internal/chainio): a built Solver
// deconstructs into SnapshotData — only the state that cannot be recomputed
// cheaply and deterministically — and AssembleSnapshot reconstructs a Solver
// from it. What is persisted: the input graph and the graphs A_i below the
// top with exact float64 weight bits, each level's sampled-edge count, the
// elimination op logs, the calibrated Chebyshev schedule, the sparse bottom
// factor with its elimination order, the truncation probes, ChainParams and
// MaxIter. The top-level graph is not: it is the merged input graph, which
// restore recomputes. Nor are the sparsifier graphs B_i: a solve reads only
// their elimination logs. What is recomputed on restore: the top-level
// graph, the level (or, for a chain with no level, bottom) Laplacian CSRs,
// connected components and their sorted indexes, the eliminations'
// owner-computes reverse indexes, the bottom grounding bookkeeping, and the
// workspace pool. Every recomputation is one of the fixed-schedule
// deterministic passes the build itself ran, so a restored chain solves
// bit-for-bit like the original for every Workers setting — the invariant
// chainio's round-trip tests lock.

// SnapshotLevel is one chain level's persisted payload.
type SnapshotLevel struct {
	Reduced  *graph.Graph // A_{i+1}, what B_i's elimination keeps (the last level's is the bottom graph)
	Sampled  int
	Ops      []ElimOp // partial-Cholesky op log B_i -> A_{i+1}
	RoundEnd []int
	// Calibrated schedule (exact bits; never re-measured on restore).
	Kappa         float64
	ChebIts       int
	EigHi, EigLo  float64
	KappaMeasured float64
	Calibrated    bool
}

// SnapshotData is a built Solver's persisted payload.
type SnapshotData struct {
	Params  ChainParams
	MaxIter int
	G       *graph.Graph // the registered input graph
	Levels  []SnapshotLevel
	// Bottom is the grounded sparse LDL^T of the bottom graph's Laplacian
	// and BottomOrder its elimination order (position -> kept vertex).
	Bottom      *matrix.SparseLDL
	BottomOrder []int
	// Probes and Stop are the build's truncation record (Chain.Probes/Stop).
	Probes []TruncationProbe
	Stop   string
}

// Snapshot deconstructs a built Solver into its persisted payload. The
// returned structure shares the solver's backing arrays — treat it (and the
// solver) as read-only until encoding finishes, which the read-only-after-
// build contract already guarantees.
func (s *Solver) Snapshot() *SnapshotData {
	d := &SnapshotData{
		Params:  s.Chain.Params,
		MaxIter: s.MaxIter,
		G:       s.G,
		Bottom:  s.Chain.Bottom.Factor(), BottomOrder: s.Chain.Bottom.Order(),
		Probes: s.Chain.Probes, Stop: s.Chain.Stop,
		Levels: make([]SnapshotLevel, len(s.Chain.Levels)),
	}
	for i := range s.Chain.Levels {
		lvl := &s.Chain.Levels[i]
		d.Levels[i] = SnapshotLevel{
			Reduced: lvl.Elim.Reduced, Sampled: lvl.Sampled,
			Ops:      lvl.Elim.Ops,
			RoundEnd: lvl.Elim.RoundEnd,
			Kappa:    lvl.Kappa, ChebIts: lvl.ChebIts,
			EigHi: lvl.EigHi, EigLo: lvl.EigLo,
			KappaMeasured: lvl.KappaMeasured,
			Calibrated:    lvl.Calibrated,
		}
	}
	return d
}

// AssembleSnapshot reconstructs a ready-to-solve Solver from a snapshot
// payload, recomputing every derived structure with opt.Workers goroutines
// (results are bitwise identical for every setting). It validates the
// payload's internal consistency — graph shapes, op-log ranges, schedule
// sanity, factor dimensions — and returns an error rather than a solver
// that could panic or silently solve a different system.
func AssembleSnapshot(d *SnapshotData, opt Options) (*Solver, error) {
	w := opt.Workers
	if d.G == nil || d.Bottom == nil {
		return nil, fmt.Errorf("solver: snapshot missing graph or bottom factor")
	}
	if d.G.N == 0 {
		return nil, fmt.Errorf("solver: snapshot of empty graph")
	}
	if err := d.G.Validate(); err != nil {
		return nil, fmt.Errorf("solver: snapshot input graph: %w", err)
	}
	if d.MaxIter < 1 {
		return nil, fmt.Errorf("solver: snapshot MaxIter %d < 1", d.MaxIter)
	}
	// gs[i] is A_i; gs[len(d.Levels)] is the bottom graph. The top one is
	// the merged input graph, recomputed exactly as the build computed it.
	gs := []*graph.Graph{mergeParallelW(w, d.G)}
	for i := range d.Levels {
		g := d.Levels[i].Reduced
		if g == nil {
			return nil, fmt.Errorf("solver: snapshot level %d missing graph", i+1)
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("solver: snapshot level %d graph: %w", i+1, err)
		}
		gs = append(gs, g)
	}
	c := &Chain{Params: d.Params, Opt: opt, BottomG: gs[len(d.Levels)], Probes: d.Probes, Stop: d.Stop}
	for _, pr := range d.Probes {
		if pr.Level < 1 || pr.Level > len(d.Levels) {
			return nil, fmt.Errorf("solver: snapshot truncation probe names level %d of a %d-level chain", pr.Level, len(d.Levels))
		}
	}
	c.Levels = make([]Level, len(d.Levels))
	for i := range d.Levels {
		sl := &d.Levels[i]
		g := gs[i]
		// Level 0 runs no Chebyshev sweep (the outer PCG iterates on it), so
		// only the levels below carry a schedule to check.
		if i > 0 && (sl.ChebIts < 1 || sl.ChebIts > 1<<20) {
			return nil, fmt.Errorf("solver: snapshot level %d has implausible ChebIts %d", i, sl.ChebIts)
		}
		if i > 0 && (!(sl.EigLo > 0) || !(sl.EigHi >= sl.EigLo)) {
			return nil, fmt.Errorf("solver: snapshot level %d has invalid Chebyshev interval [%g, %g]", i, sl.EigLo, sl.EigHi)
		}
		el := &Elimination{OrigN: g.N, Ops: sl.Ops, RoundEnd: sl.RoundEnd}
		if err := el.ReindexW(w); err != nil {
			return nil, fmt.Errorf("solver: snapshot level %d: %w", i, err)
		}
		next := gs[i+1]
		if len(el.Keep) != next.N {
			return nil, fmt.Errorf("solver: snapshot level %d elimination keeps %d vertices, next level has %d", i, len(el.Keep), next.N)
		}
		el.Reduced = next
		comp, k := g.ConnectedComponents()
		c.Levels[i] = Level{
			G: g, Lap: matrix.LaplacianOfW(w, g),
			Comp: comp, NumComp: k,
			CompIdx: matrix.NewCompIndexW(w, comp, k),
			Sampled: sl.Sampled, Elim: el,
			Kappa: sl.Kappa, ChebIts: sl.ChebIts,
			EigHi: sl.EigHi, EigLo: sl.EigLo,
			KappaMeasured: sl.KappaMeasured,
			Calibrated:    sl.Calibrated,
		}
	}
	bComp, bk := c.BottomG.ConnectedComponents()
	bf, err := matrix.NewLaplacianFactorFromParts(w, c.BottomG.N, bComp, bk, d.BottomOrder, d.Bottom)
	if err != nil {
		return nil, fmt.Errorf("solver: snapshot bottom factor: %w", err)
	}
	c.Bottom = bf
	if len(c.Levels) == 0 {
		c.bottomLap = matrix.LaplacianOfW(w, c.BottomG)
	}
	c.ready()
	return newSolver(d.G, c, opt, d.MaxIter), nil
}
