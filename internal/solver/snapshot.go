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
// from it. What is persisted: per-level graphs and sparsifier outputs with
// exact float64 weight bits, the elimination op logs, the calibrated
// Chebyshev schedule, the sparse bottom factor with its elimination order,
// the truncation probes, ChainParams and MaxIter.
// What is recomputed on restore: Laplacian CSRs, connected components and
// their sorted indexes, the eliminations' owner-computes reverse indexes,
// the bottom grounding bookkeeping, and the workspace pools. Every
// recomputation is one of the fixed-schedule deterministic passes the build
// itself ran, so a restored chain solves bit-for-bit like the original for
// every Workers setting — the invariant chainio's round-trip tests lock.

// SnapshotLevel is one chain level's persisted payload.
type SnapshotLevel struct {
	G        *graph.Graph // A_i (level 0: the merged input; else prior Reduced)
	H        *graph.Graph // B_i, the sparsifier output the elimination ran on
	Subgraph []int        // low-stretch subgraph edge ids within A_i
	Sampled  int
	StretchS float64
	Ops      []ElimOp // partial-Cholesky op log B_i -> A_{i+1}
	RoundEnd []int
	// Calibrated schedule (exact bits; never re-measured on restore).
	Kappa         float64
	ChebIts       int
	EigHi, EigLo  float64
	KappaMeasured float64
	Calibrated    bool
	// Precision-gate and layout outcomes (format v3). Restore re-applies
	// them mechanically — the f64→f32 rounding and the permutation build
	// are deterministic — so the restored apply path is bit-identical.
	ValF32   bool
	KappaF64 float64
	Perm     []int32 // Cuthill–McKee relabeling, nil/empty when not reordered
}

// SnapshotData is a built Solver's persisted payload.
type SnapshotData struct {
	Params  ChainParams
	MaxIter int
	G       *graph.Graph // the registered input graph
	Levels  []SnapshotLevel
	BottomG *graph.Graph
	// Bottom is the grounded sparse LDL^T of BottomG's Laplacian and
	// BottomOrder its elimination order (position -> kept vertex).
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
		BottomG: s.Chain.BottomG,
		Bottom:  s.Chain.Bottom.Factor(), BottomOrder: s.Chain.Bottom.Order(),
		Probes: s.Chain.Probes, Stop: s.Chain.Stop,
		Levels: make([]SnapshotLevel, len(s.Chain.Levels)),
	}
	for i := range s.Chain.Levels {
		lvl := &s.Chain.Levels[i]
		d.Levels[i] = SnapshotLevel{
			G: lvl.G, H: lvl.Spars.H,
			Subgraph: lvl.Spars.Subgraph,
			Sampled:  lvl.Spars.Sampled,
			StretchS: lvl.Spars.StretchS,
			Ops:      lvl.Elim.Ops,
			RoundEnd: lvl.Elim.RoundEnd,
			Kappa:    lvl.Kappa, ChebIts: lvl.ChebIts,
			EigHi: lvl.EigHi, EigLo: lvl.EigLo,
			KappaMeasured: lvl.KappaMeasured,
			Calibrated:    lvl.Calibrated,
			ValF32:        lvl.ValF32,
			KappaF64:      lvl.KappaF64,
			Perm:          lvl.Perm,
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
	if d.G == nil || d.BottomG == nil || d.Bottom == nil {
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
	c := &Chain{Params: d.Params, Opt: opt, BottomG: d.BottomG, Probes: d.Probes, Stop: d.Stop}
	for _, pr := range d.Probes {
		if pr.Level < 1 || pr.Level > len(d.Levels) {
			return nil, fmt.Errorf("solver: snapshot truncation probe names level %d of a %d-level chain", pr.Level, len(d.Levels))
		}
	}
	c.Levels = make([]Level, len(d.Levels))
	for i := range d.Levels {
		sl := &d.Levels[i]
		if sl.G == nil || sl.H == nil {
			return nil, fmt.Errorf("solver: snapshot level %d missing graph", i)
		}
		if err := sl.G.Validate(); err != nil {
			return nil, fmt.Errorf("solver: snapshot level %d graph: %w", i, err)
		}
		if err := sl.H.Validate(); err != nil {
			return nil, fmt.Errorf("solver: snapshot level %d sparsifier: %w", i, err)
		}
		if sl.H.N != sl.G.N {
			return nil, fmt.Errorf("solver: snapshot level %d sparsifier has %d vertices, level has %d", i, sl.H.N, sl.G.N)
		}
		for _, id := range sl.Subgraph {
			if id < 0 || id >= sl.G.M() {
				return nil, fmt.Errorf("solver: snapshot level %d subgraph edge id %d out of range", i, id)
			}
		}
		if sl.ChebIts < 1 || sl.ChebIts > 1<<20 {
			return nil, fmt.Errorf("solver: snapshot level %d has implausible ChebIts %d", i, sl.ChebIts)
		}
		if !(sl.EigLo > 0) || !(sl.EigHi >= sl.EigLo) {
			return nil, fmt.Errorf("solver: snapshot level %d has invalid Chebyshev interval [%g, %g]", i, sl.EigLo, sl.EigHi)
		}
		el := &Elimination{OrigN: sl.H.N, Ops: sl.Ops, RoundEnd: sl.RoundEnd}
		if err := el.ReindexW(w); err != nil {
			return nil, fmt.Errorf("solver: snapshot level %d: %w", i, err)
		}
		next := d.BottomG
		if i+1 < len(d.Levels) {
			next = d.Levels[i+1].G
		}
		if len(el.Keep) != next.N {
			return nil, fmt.Errorf("solver: snapshot level %d elimination keeps %d vertices, next level has %d", i, len(el.Keep), next.N)
		}
		el.Reduced = next
		if sl.ValF32 && i == 0 {
			return nil, fmt.Errorf("solver: snapshot marks top level as float32 (the gate never converts level 0)")
		}
		if len(sl.Perm) > 0 && i == 0 {
			return nil, fmt.Errorf("solver: snapshot carries a top-level permutation (level 0 is never reordered)")
		}
		comp, k := sl.G.ConnectedComponents()
		c.Levels[i] = Level{
			G: sl.G, Lap: matrix.LaplacianOfW(w, sl.G),
			Comp: comp, NumComp: k,
			CompIdx: matrix.NewCompIndexW(w, comp, k),
			Spars: &SparsifyResult{
				H: sl.H, Subgraph: sl.Subgraph,
				Sampled: sl.Sampled, StretchS: sl.StretchS,
			},
			Elim:  el,
			Kappa: sl.Kappa, ChebIts: sl.ChebIts,
			EigHi: sl.EigHi, EigLo: sl.EigLo,
			KappaMeasured: sl.KappaMeasured,
			Calibrated:    sl.Calibrated,
			ValF32:        sl.ValF32,
			KappaF64:      sl.KappaF64,
		}
		// Re-apply the persisted layout and precision outcomes in build
		// order (permute, then convert) — both passes are deterministic, so
		// the restored LapP/Val32 arrays match the original bit-for-bit.
		nl := &c.Levels[i]
		if len(sl.Perm) > 0 {
			if !matrix.IsPermutation(sl.Perm, sl.G.N) {
				return nil, fmt.Errorf("solver: snapshot level %d permutation is not a permutation of %d vertices", i, sl.G.N)
			}
			nl.applyReorder(w, sl.Perm)
		}
		if sl.ValF32 {
			nl.Lap.ConvertValues32()
			if nl.LapP != nil {
				nl.LapP.ConvertValues32()
			}
		}
	}
	if err := d.BottomG.Validate(); err != nil {
		return nil, fmt.Errorf("solver: snapshot bottom graph: %w", err)
	}
	bComp, bk := d.BottomG.ConnectedComponents()
	bf, err := matrix.NewLaplacianFactorFromParts(w, d.BottomG.N, bComp, bk, d.BottomOrder, d.Bottom)
	if err != nil {
		return nil, fmt.Errorf("solver: snapshot bottom factor: %w", err)
	}
	c.Bottom = bf
	// Warm the chain's workspace pool exactly as calibrate does at build
	// time, so the restored chain's first preconditioner application is
	// allocation-free and MemoryBytes already accounts the retained scratch.
	c.ws.seed(newWorkspace(c, 1))
	comp, k := d.G.ConnectedComponents()
	s := &Solver{
		G: d.G, Lap: matrix.LaplacianOfW(w, d.G), Chain: c,
		Comp: comp, NumComp: k,
		CompIdx: matrix.NewCompIndexW(w, comp, k),
		Opt:     opt,
		MaxIter: d.MaxIter,
	}
	return s, nil
}
