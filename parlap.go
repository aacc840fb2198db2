// Package parlap is a parallel solver for symmetric diagonally dominant
// (SDD) linear systems, reproducing "Near Linear-Work Parallel SDD Solvers,
// Low-Diameter Decomposition, and Low-Stretch Subgraphs" (Blelloch, Gupta,
// Koutis, Miller, Peng, Tangwongsan — SPAA 2011).
//
// The public API wraps the internal packages:
//
//   - Graph / Edge: weighted undirected graphs (weights are conductances
//     when solving, lengths when measuring stretch).
//   - NewSolver: a Laplacian solver built on the paper's preconditioner
//     chain — low-stretch subgraphs (Section 5), incremental sparsification
//     (Lemma 6.1), parallel greedy elimination (Lemma 6.5) and recursive
//     preconditioned Chebyshev with a direct bottom solve (Section 6).
//   - NewSDDSolver: general SDD input via the Gremban double-cover
//     reduction.
//   - Partition: the Section 4 parallel low-diameter decomposition.
//   - LowStretchTree / LowStretchSubgraph: the Section 5 constructions.
//
// A minimal solve:
//
//	g := parlap.Grid2D(100, 100)
//	s, err := parlap.NewSolver(g)
//	if err != nil { ... }
//	x, stats := s.Solve(b, 1e-8)
package parlap

import (
	"math/rand"

	"parlap/internal/decomp"
	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/lowstretch"
	"parlap/internal/matrix"
	"parlap/internal/solver"
	"parlap/internal/wd"
)

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Graph is a weighted undirected multigraph in CSR form.
type Graph = graph.Graph

// NewGraph builds a graph from an edge list over n vertices.
func NewGraph(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Sparse is a square sparse matrix in CSR form.
type Sparse = matrix.Sparse

// NewSparse builds a sparse matrix from triplets, summing duplicates.
func NewSparse(n int, rows, cols []int, vals []float64) (*Sparse, error) {
	return matrix.NewSparseFromTriplets(n, rows, cols, vals)
}

// Laplacian returns the graph Laplacian of g.
func Laplacian(g *Graph) *Sparse { return matrix.LaplacianOf(g) }

// Solver solves Laplacian systems for a fixed graph.
type Solver = solver.Solver

// SDDSolver solves general SDD systems via the Gremban reduction.
type SDDSolver = solver.SDDSolver

// SolveStats reports iterations, convergence and the analytic work/depth of
// that one solve.
type SolveStats = solver.SolveStats

// ChainParams tunes preconditioner-chain construction; see DefaultOptions.
type ChainParams = solver.ChainParams

// Options selects the solver's runtime execution policy. Workers = 0 uses
// GOMAXPROCS goroutines in every parallel kernel, Workers = 1 forces the
// sequential reference path; any other value is used literally. Results are
// bitwise identical across settings (fixed reduction trees).
type Options = solver.Options

// Recorder accumulates analytic PRAM-style work/depth counters. A recorder
// passed to a solver constructor counts construction only; each solve
// reports its own work and depth in SolveStats.
type Recorder = wd.Recorder

// DefaultOptions returns the chain parameters used by NewSolver.
func DefaultOptions() ChainParams { return solver.DefaultChainParams() }

// NewSolver builds a Laplacian solver for g with default options.
func NewSolver(g *Graph) (*Solver, error) {
	return solver.New(g, solver.DefaultChainParams(), nil)
}

// NewSolverWith builds a Laplacian solver with explicit options and an
// optional work/depth recorder.
func NewSolverWith(g *Graph, p ChainParams, rec *Recorder) (*Solver, error) {
	return solver.New(g, p, rec)
}

// NewSolverWithOptions builds a Laplacian solver with explicit chain
// parameters, execution policy and optional recorder.
func NewSolverWithOptions(g *Graph, p ChainParams, opt Options, rec *Recorder) (*Solver, error) {
	return solver.NewWithOptions(g, p, opt, rec)
}

// NewSDDSolver builds a solver for a general SDD matrix.
func NewSDDSolver(a *Sparse) (*SDDSolver, error) {
	return solver.NewSDD(a, solver.DefaultChainParams(), nil)
}

// NewSDDSolverWithOptions builds a solver for a general SDD matrix with an
// explicit execution policy.
func NewSDDSolverWithOptions(a *Sparse, p ChainParams, opt Options, rec *Recorder) (*SDDSolver, error) {
	return solver.NewSDDWithOptions(a, p, opt, rec)
}

// Decomposition is a low-diameter partition of a graph's vertices.
type Decomposition = decomp.Result

// Partition runs the Section 4 low-diameter decomposition with radius rho
// and practical constants; every component has strong hop-radius ≤ rho.
func Partition(g *Graph, rho int, seed int64) *Decomposition {
	rng := rand.New(rand.NewSource(seed))
	return decomp.SplitGraph(g, rho, decomp.PracticalParams(), rng, nil)
}

// LowStretchTree returns edge ids of an AKPW low-stretch spanning forest of
// g (weights as lengths).
func LowStretchTree(g *Graph, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	tree, _ := lowstretch.AKPW(g, lowstretch.PracticalParams(), rng, nil)
	return tree
}

// LowStretchSubgraph returns edge ids of a Theorem 5.9 ultra-sparse
// low-stretch subgraph of g (weights as lengths). Larger beta gives fewer
// extra edges and higher stretch.
func LowStretchSubgraph(g *Graph, beta float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	p := lowstretch.ParamsForBeta(g.N, beta, 2, false)
	sub, _ := lowstretch.LSSubgraph(g, p, rng, nil)
	return sub.EdgeIDs()
}

// AverageStretch returns the average stretch of g's edges with respect to
// the spanning forest treeEdges (weights as lengths).
func AverageStretch(g *Graph, treeEdges []int) float64 {
	_, st := lowstretch.TreeStretch(g, treeEdges)
	return st.Average
}

// Convenience generators re-exported for examples and quick starts.

// Grid2D returns the rows×cols unit-weight grid graph.
func Grid2D(rows, cols int) *Graph { return gen.Grid2D(rows, cols) }

// Grid3D returns the x×y×z unit-weight grid graph.
func Grid3D(x, y, z int) *Graph { return gen.Grid3D(x, y, z) }

// GNP returns a connected Erdős–Rényi graph.
func GNP(n int, p float64, seed int64) *Graph { return gen.GNP(n, p, seed) }
