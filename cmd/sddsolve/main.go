// Command sddsolve solves an SDD linear system A·x = b with the parlap
// preconditioner-chain solver.
//
// The matrix comes from a symmetric MatrixMarket file (-matrix), a weighted
// edge list interpreted as a graph Laplacian (-graph), or a built-in
// generator (-gen grid2d:ROWSxCOLS, grid3d:XxYxZ, gnp:N:P, torus:RxC).
// The right-hand side is read one number per line from -rhs, or generated
// (-b random|ends).
//
// Examples:
//
//	sddsolve -gen grid2d:200x200 -b random -eps 1e-8 -stats
//	sddsolve -matrix system.mtx -rhs b.txt -out x.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/graphio"
	"parlap/internal/matrix"
	"parlap/internal/solver"
	"parlap/internal/wd"
)

var (
	matrixPath = flag.String("matrix", "", "MatrixMarket file with an SDD matrix")
	graphPath  = flag.String("graph", "", "edge-list file (graph Laplacian)")
	genSpec    = flag.String("gen", "", "generator spec: grid2d:RxC | grid3d:XxYxZ | torus:RxC | gnp:N:P")
	rhsPath    = flag.String("rhs", "", "right-hand side file (one value per line)")
	bMode      = flag.String("b", "random", "generated rhs when -rhs is absent: random | ends")
	outPath    = flag.String("out", "", "write the solution here (default: stdout summary only)")
	eps        = flag.Float64("eps", 1e-8, "relative residual target")
	seed       = flag.Int64("seed", 1, "random seed")
	stats      = flag.Bool("stats", false, "print chain shape and work/depth accounting")
	workers    = flag.Int("workers", 0, "worker goroutines for parallel kernels (0 = GOMAXPROCS, 1 = sequential)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sddsolve:", err)
		os.Exit(1)
	}
}

func run() error {
	var rec wd.Recorder
	var lapSolver *solver.Solver
	var sddSolver *solver.SDDSolver
	var n int

	switch {
	case *matrixPath != "":
		f, err := os.Open(*matrixPath)
		if err != nil {
			return err
		}
		defer f.Close()
		a, err := graphio.ReadMatrixMarket(f)
		if err != nil {
			return err
		}
		n = a.N
		sddSolver, err = solver.NewSDDWithOptions(a, solver.DefaultChainParams(), solver.Options{Workers: *workers}, &rec)
		if err != nil {
			return err
		}
	case *graphPath != "" || *genSpec != "":
		g, err := loadGraph()
		if err != nil {
			return err
		}
		n = g.N
		lapSolver, err = solver.NewWithOptions(g, solver.DefaultChainParams(), solver.Options{Workers: *workers}, &rec)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -matrix, -graph, -gen is required")
	}

	b, err := loadRHS(n)
	if err != nil {
		return err
	}

	t0 := time.Now()
	var x []float64
	var st solver.SolveStats
	if lapSolver != nil {
		x, st = lapSolver.Solve(b, *eps)
	} else {
		x, st = sddSolver.Solve(b, *eps)
	}
	wall := time.Since(t0)

	fmt.Printf("n=%d  iterations=%d  converged=%v  residual=%.3g  wall=%v\n",
		n, st.Iterations, st.Converged, st.Residual, wall.Round(time.Millisecond))
	if *stats {
		fmt.Printf("analytic build work=%d depth=%d; solve work=%d depth=%d\n",
			rec.Work(), rec.Depth(), st.Work, st.Depth)
		if lapSolver != nil {
			bi := lapSolver.Chain.BottomInfo()
			fmt.Printf("chain edge counts: %v (bottom n=%d nnz(L)=%d; stop: %s)\n",
				lapSolver.Chain.EdgeCounts(), bi.N, bi.NNZL, bi.Stop)
			for i, l := range lapSolver.Chain.Levels {
				if i == 0 {
					fmt.Printf("  level 1: kappa=%g outer PCG sampled=%d\n", l.Kappa, l.Sampled)
					continue
				}
				fmt.Printf("  level %d: kappa=%g chebIts=%d spec=[%.3g, %.3g] sampled=%d\n",
					i+1, l.Kappa, l.ChebIts, l.EigLo, l.EigHi, l.Sampled)
			}
			// Wall times, so unlike everything above they vary run to run.
			bt := lapSolver.Chain.Build
			fmt.Printf("build: total=%.1fms", bt.TotalMS)
			for _, ph := range bt.Phases() {
				fmt.Printf(" %s=%.1fms", ph.Name, ph.MS)
			}
			fmt.Println()
			for _, lb := range bt.Levels {
				fmt.Printf("  build level %d: laplacian=%.1fms fill_analysis=%.1fms sparsify=%.1fms eliminate=%.1fms (%d rounds, %d ops)\n",
					lb.Level+1, lb.LaplacianMS, lb.FillAnalysisMS, lb.SparsifyMS, lb.EliminateMS, lb.Rounds, lb.Ops)
			}
		}
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		for _, v := range x {
			fmt.Fprintf(w, "%.17g\n", v)
		}
		return w.Flush()
	}
	return nil
}

func loadGraph() (*graph.Graph, error) {
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graphio.ReadEdgeList(f)
	}
	return gen.FromSpec(*genSpec, *seed)
}

func loadRHS(n int) ([]float64, error) {
	if *rhsPath != "" {
		f, err := os.Open(*rhsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		var b []float64
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			v, err := strconv.ParseFloat(line, 64)
			if err != nil {
				return nil, fmt.Errorf("bad rhs value %q", line)
			}
			b = append(b, v)
		}
		if len(b) != n {
			return nil, fmt.Errorf("rhs has %d values for n=%d", len(b), n)
		}
		return b, sc.Err()
	}
	b := make([]float64, n)
	switch *bMode {
	case "random":
		rng := rand.New(rand.NewSource(*seed))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		matrix.ProjectOutConstant(b)
	case "ends":
		b[0] = 1
		b[n-1] = -1
	default:
		return nil, fmt.Errorf("unknown -b mode %q", *bMode)
	}
	return b, nil
}
