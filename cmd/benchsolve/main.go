// Command benchsolve runs the solve-path benchmark matrix and emits a
// machine-readable BENCH_solve.json: chain-build time, single-solve latency
// and iteration count, and batched per-RHS latency, per topology. CI runs it
// on every push so the bench trajectory of the solve path is recorded next
// to the test results; compare files across commits to see the trend.
//
//	go run ./cmd/benchsolve -out BENCH_solve.json          # testbed + grid2d:128x128
//	go run ./cmd/benchsolve -quick -out BENCH_solve.json   # same specs, CI-sized reps
//	go run ./cmd/benchsolve -full -out BENCH_solve.json    # adds grid2d:256x256 (slow)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"parlap/internal/gen"
	"parlap/internal/matrix"
	"parlap/internal/solver"
)

var (
	outPath = flag.String("out", "BENCH_solve.json", "output file")
	quick   = flag.Bool("quick", false, "CI-sized repetitions")
	full    = flag.Bool("full", false, "also run grid2d:256x256 (minutes on one core)")
	eps     = flag.Float64("eps", 1e-6, "relative residual target")
	batchK  = flag.Int("batch", 8, "batch width for the batched-solve row")
	seed    = flag.Int64("seed", 1, "graph + RHS seed")
	workers = flag.Int("workers", 0, "solver worker count (0 = GOMAXPROCS); iteration counts are identical for every value")
)

// result is one topology's row.
type result struct {
	Topology     string  `json:"topology"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	ChainBuildMS float64 `json:"chain_build_ms"`
	Levels       int     `json:"levels"`
	EdgeCounts   []int   `json:"edge_counts"`
	SolveMS      float64 `json:"solve_ms_median"`
	Iterations   int     `json:"iterations"`
	Residual     float64 `json:"residual"`
	BatchWidth   int     `json:"batch_width"`
	BatchPerRHS  float64 `json:"batch_ms_per_rhs"`
	BatchSpeedup float64 `json:"batch_per_rhs_speedup"`
	// Batch is the per-RHS batch sweep: one row per batch width k, each
	// solving the same k right-hand sides batched and individually, so the
	// per-RHS speedup trajectory of the block engine is recorded per commit
	// (CI extracts it into the BENCH_batch artifact).
	Batch []batchRow `json:"batch"`
	// Schedule is the calibrated per-level κ schedule (measured spectral
	// bounds, measured condition numbers, Chebyshev iteration counts) — the
	// quantities the ROADMAP's numerical-scaling item tracks.
	Schedule []solver.LevelSchedule `json:"schedule"`
}

// batchRow is one batch width's measurement: k right-hand sides solved in
// one block batch vs the same k solved one at a time.
type batchRow struct {
	K        int     `json:"k"`
	PerRHSMS float64 `json:"ms_per_rhs"`
	Speedup  float64 `json:"per_rhs_speedup"`
}

type doc struct {
	GeneratedUnix int64 `json:"generated_unix"`
	// Provenance stamp: which build of the code, toolchain, and machine
	// produced these numbers — what makes cross-commit comparison of bench
	// artifacts (CI's perf-regression gate) trustworthy.
	GitSHA     string   `json:"git_sha,omitempty"`
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Eps        float64  `json:"eps"`
	Quick      bool     `json:"quick"`
	Results    []result `json:"results"`
}

// gitSHA resolves the commit being benchmarked: CI's $GITHUB_SHA when set,
// otherwise git itself; empty (omitted from the JSON) outside a checkout.
func gitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func meanFreeRHS(n int, rng *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	matrix.ProjectOutConstant(b)
	return b
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func main() {
	flag.Parse()
	// The first three specs are the convergence-regression testbed: the
	// solver test suite pins their outer PCG iteration counts (see
	// internal/solver convergence tests), and this command records the same
	// counts in BENCH_solve.json so the κ-schedule trajectory is tracked in
	// CI rather than one-off notes. Keep the two lists in sync.
	// grid2d:128x128 runs on EVERY invocation (including CI's -quick) so the
	// iteration-vs-n trajectory the ROADMAP worries about is recorded per
	// commit; -full adds grid2d:256x256 for the long trajectory.
	specs := []string{"grid2d:64x64", "regular:4000:8", "pa:4000:4", "grid2d:128x128"}
	reps := 5
	if *quick {
		reps = 3
	}
	if *full {
		specs = append(specs, "grid2d:256x256")
	}
	out := doc{
		GeneratedUnix: time.Now().Unix(),
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Eps:           *eps,
		Quick:         *quick,
	}
	for _, spec := range specs {
		g, err := gen.FromSpec(spec, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsolve: %s: %v\n", spec, err)
			os.Exit(1)
		}
		params := solver.DefaultChainParams()
		t0 := time.Now()
		s, err := solver.NewWithOptions(g, params, solver.Options{Workers: *workers}, nil)
		buildMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsolve: %s: chain build: %v\n", spec, err)
			os.Exit(1)
		}
		rng := rand.New(rand.NewSource(*seed + 7))
		b := meanFreeRHS(g.N, rng)
		var solveTimes []float64
		var st solver.SolveStats
		var x []float64
		for r := 0; r < reps; r++ {
			t0 = time.Now()
			x, st = s.Solve(b, *eps)
			solveTimes = append(solveTimes, float64(time.Since(t0).Microseconds())/1000)
		}
		res := s.Residual(x, b)
		// Batched vs single on the SAME right-hand-side set per width, so
		// each speedup isolates the chain-pass sharing (per-RHS convergence
		// variance cancels: each column costs identical iterations either
		// way). The sweep widths cover the streaming window sizes the block
		// engine targets; the legacy batch_* fields report the -batch width.
		ks := []int{1, 4, 8, 16}
		if *batchK != 1 && *batchK != 4 && *batchK != 8 && *batchK != 16 {
			ks = append(ks, *batchK)
		}
		var sweep []batchRow
		batchMS, singlesMS := 0.0, 0.0
		for _, k := range ks {
			bs := make([][]float64, k)
			for c := range bs {
				bs[c] = meanFreeRHS(g.N, rng)
			}
			t0 = time.Now()
			for _, bc := range bs {
				_, _ = s.Solve(bc, *eps)
			}
			sMS := float64(time.Since(t0).Microseconds()) / 1000
			t0 = time.Now()
			_, _ = s.SolveBatch(bs, *eps)
			bMS := float64(time.Since(t0).Microseconds()) / 1000
			br := batchRow{K: k, PerRHSMS: bMS / float64(k)}
			if bMS > 0 {
				br.Speedup = sMS / bMS
			}
			sweep = append(sweep, br)
			if k == *batchK {
				batchMS, singlesMS = bMS, sMS
			}
		}
		row := result{
			Topology:     spec,
			N:            g.N,
			M:            g.M(),
			ChainBuildMS: buildMS,
			Levels:       s.Chain.Depth(),
			EdgeCounts:   s.Chain.EdgeCounts(),
			SolveMS:      median(solveTimes),
			Iterations:   st.Iterations,
			Residual:     res,
			BatchWidth:   *batchK,
			BatchPerRHS:  batchMS / float64(*batchK),
			Batch:        sweep,
			Schedule:     s.Chain.Schedule(),
		}
		if batchMS > 0 {
			row.BatchSpeedup = singlesMS / batchMS
		}
		out.Results = append(out.Results, row)
		fmt.Printf("%-18s n=%-6d m=%-6d build=%8.1fms solve=%8.1fms iters=%-5d residual=%.2e batch/RHS=%8.1fms (%.2fx)\n",
			spec, g.N, g.M(), buildMS, row.SolveMS, st.Iterations, res, row.BatchPerRHS, row.BatchSpeedup)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsolve:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchsolve:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsolve:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d topologies)\n", *outPath, len(out.Results))
}
