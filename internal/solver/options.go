package solver

// Options selects the runtime execution policy of a solver, independently of
// the numerical ChainParams. It exists so the same chain can be driven
// sequentially and in parallel and the two runs compared: the pipeline's
// iteration-time kernels (CSR construction, AXPY/dot/residual, the
// elimination forward/back substitutions, Chebyshev and PCG iteration),
// the chain-level construction kernels, AND the sparsification sub-stages
// (low-stretch subgraph construction, stretch scoring, low-diameter
// decomposition — threaded through lowstretch.Params.Workers and
// decomp.Params.Workers) are all selected through Workers, so Workers:1 is
// single-goroutine end-to-end, and par's fixed-grain reductions make the
// results bitwise identical across settings.
type Options struct {
	// Workers is the number of goroutines used by the solver's parallel
	// kernels: 0 means runtime.GOMAXPROCS(0), 1 forces the sequential
	// reference path (for the kernels listed above), and any other value is
	// used literally. A solve of one right-hand side spends them inside each
	// kernel; a block solve of k ≥ 2 splits into max(min(Workers, k), ⌈k/4⌉)
	// lane groups of at most four lanes, runs up to Workers of them
	// concurrently, each on the sequential kernels, and its SolveTrace sums
	// the groups' slots (worker time, not wall time).
	Workers int
}
