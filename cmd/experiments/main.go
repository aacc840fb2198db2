// Command experiments prints the experiment tables E1–E10 (the paper has no
// empirical tables of its own — each theorem/lemma's quantitative claim is
// validated here; -exp lists the index, bench_test.go holds the matching
// benchmarks).
//
// Usage:
//
//	go run ./cmd/experiments            # run all experiments
//	go run ./cmd/experiments -exp E2    # one experiment
//	go run ./cmd/experiments -quick     # smaller instances (CI-sized)
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"parlap/internal/apps"
	"parlap/internal/decomp"
	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/lowstretch"
	"parlap/internal/matrix"
	"parlap/internal/solver"
	"parlap/internal/wd"
)

var (
	expFlag   = flag.String("exp", "all", "experiment id (E1..E10) or 'all'")
	quickFlag = flag.Bool("quick", false, "smaller instances")
	seedFlag  = flag.Int64("seed", 1, "random seed")
)

func main() {
	flag.Parse()
	run := map[string]func(){
		"E1": e1, "E2": e2, "E3": e3, "E4": e4, "E5": e5,
		"E6": e6, "E7": e7, "E8": e8, "E9": e9, "E10": e10,
	}
	if *expFlag == "all" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"} {
			run[id]()
		}
		return
	}
	f, ok := run[strings.ToUpper(*expFlag)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	f()
}

func header(id, claim string) {
	fmt.Printf("\n== %s — %s ==\n", id, claim)
}

func scaled(full, quick int) int {
	if *quickFlag {
		return quick
	}
	return full
}

// E1 — Theorem 4.1(1,2): strong radius ≤ ρ, centers inside components.
func e1() {
	header("E1", "Thm 4.1(1,2): strong radius <= rho on every component")
	fmt.Printf("%-14s %6s %6s %10s %10s %10s\n", "graph", "rho", "comps", "maxRadius", "ok(r<=rho)", "ctrInside")
	side := scaled(128, 32)
	graphs := map[string]*graph.Graph{
		"grid2d":   gen.Grid2D(side, side),
		"gnp":      gen.GNP(side*side/2, 4.0/float64(side*side/2), *seedFlag),
		"rand-reg": gen.RandomRegular(side*side/2, 4, *seedFlag),
	}
	for _, name := range []string{"grid2d", "gnp", "rand-reg"} {
		g := graphs[name]
		for _, rho := range []int{8, 16, 32, 64} {
			rng := rand.New(rand.NewSource(*seedFlag))
			res := decomp.SplitGraph(g, rho, decomp.PracticalParams(), rng, nil)
			radii := decomp.StrongRadius(g, res)
			maxR := 0
			for _, r := range radii {
				if r > maxR {
					maxR = r
				}
			}
			centersOK := true
			for c, s := range res.Centers {
				if int(res.Comp[s]) != c {
					centersOK = false
				}
			}
			fmt.Printf("%-14s %6d %6d %10d %10v %10v\n",
				name, rho, res.NumComp, maxR, maxR <= rho, centersOK)
		}
	}
}

// E2 — Theorem 4.1(3): cut fraction decays like 1/ρ; multi-class balance.
func e2() {
	header("E2", "Thm 4.1(3): inter-component edge fraction ~ 1/rho")
	side := scaled(160, 48)
	g := gen.Torus2D(side, side)
	fmt.Printf("torus %dx%d (m=%d), practical constants, 3 reps/row\n", side, side, g.M())
	fmt.Printf("%6s %12s %14s\n", "rho", "cutFrac", "rho*cutFrac")
	rng := rand.New(rand.NewSource(*seedFlag))
	for _, rho := range []int{4, 8, 16, 32, 64, 128} {
		total := 0
		reps := 3
		for r := 0; r < reps; r++ {
			res := decomp.SplitGraph(g, rho, decomp.PracticalParams(), rng, nil)
			total += decomp.CountCut(g, res.Comp, nil, 1).Total
		}
		frac := float64(total) / float64(reps*g.M())
		fmt.Printf("%6d %12.4f %14.3f\n", rho, frac, float64(rho)*frac)
	}
	// Multi-class: k classes must each meet the validation threshold.
	k := 4
	class := make([]int, g.M())
	for i := range class {
		class[i] = i % k
	}
	pr, err := decomp.Partition(g, class, k, 32, decomp.PracticalParams(), rng, nil)
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	fmt.Printf("multi-class k=%d rho=32: trials=%d perClassCut=%v validation=%s\n",
		k, pr.Trials, pr.Cut.PerClass, status)
}

// E3 — Lemma 4.4: per-vertex ball coverage is polylogarithmic.
func e3() {
	header("E3", "Lem 4.4: #covering (center,iter) pairs per vertex = O(log^2 n)")
	fmt.Printf("%-10s %8s %10s %10s %12s\n", "graph", "n", "maxCover", "avgCover", "log2(n)^2")
	sides := []int{16, 32, 64}
	if !*quickFlag {
		sides = append(sides, 128)
	}
	for _, side := range sides {
		g := gen.Grid2D(side, side)
		p := decomp.PracticalParams()
		p.CountCoverage = true
		rng := rand.New(rand.NewSource(*seedFlag))
		res := decomp.SplitGraph(g, 32, p, rng, nil)
		maxC, sum := 0, 0
		for _, c := range res.Coverage {
			if int(c) > maxC {
				maxC = int(c)
			}
			sum += int(c)
		}
		l := math.Log2(float64(g.N))
		fmt.Printf("grid-%-5d %8d %10d %10.2f %12.1f\n",
			side, g.N, maxC, float64(sum)/float64(g.N), l*l)
	}
}

// E4 — Theorem 5.1: AKPW average stretch grows slowly with n.
func e4() {
	header("E4", "Thm 5.1: AKPW spanning tree, average stretch vs n (sub-polynomial growth)")
	fmt.Printf("%-12s %8s %8s %10s %10s %8s\n", "graph", "n", "m", "avgStr", "maxStr", "iters")
	sides := []int{16, 32, 64}
	if !*quickFlag {
		sides = append(sides, 128)
	}
	for _, side := range sides {
		for _, weighted := range []bool{false, true} {
			g := gen.Grid2D(side, side)
			name := "grid"
			if weighted {
				g = gen.WithExponentialWeights(g, 32, 4, *seedFlag)
				name = "grid-wexp"
			}
			rng := rand.New(rand.NewSource(*seedFlag))
			tree, stats := lowstretch.AKPW(g, lowstretch.PracticalParams(), rng, nil)
			_, st := lowstretch.TreeStretch(g, tree)
			fmt.Printf("%-12s %8d %8d %10.2f %10.1f %8d\n",
				name+fmt.Sprint(side), g.N, g.M(), st.Average, st.Max, stats.Iterations)
		}
	}
}

// E5 — Theorem 5.9: LSSubgraph edges/stretch trade-off via β and λ.
func e5() {
	header("E5", "Thm 5.9: ultra-sparse subgraph, edge count vs stretch as beta/lambda vary")
	side := scaled(64, 32)
	g := gen.WithExponentialWeights(gen.Torus2D(side, side), 16, 6, *seedFlag)
	fmt.Printf("torus %dx%d wexp (n=%d m=%d)\n", side, side, g.N, g.M())
	fmt.Printf("%6s %7s %10s %12s %10s\n", "beta", "lambda", "extraEdges", "avgStretch", "maxStretch")
	rngSample := rand.New(rand.NewSource(*seedFlag + 7))
	for _, lambda := range []int{1, 2, 3} {
		for _, beta := range []float64{2, 4, 8, 16} {
			rng := rand.New(rand.NewSource(*seedFlag))
			p := lowstretch.ParamsForBeta(g.N, beta, lambda, false)
			sub, _ := lowstretch.LSSubgraph(g, p, rng, nil)
			ids := sub.EdgeIDs()
			st := lowstretch.SubgraphStretchSampled(g, ids, 400, rngSample)
			fmt.Printf("%6.0f %7d %10d %12.2f %10.1f\n",
				beta, lambda, len(ids)-(g.N-1), st.Average, st.Max)
		}
	}
}

// E6 — Lemma 5.7: well-spacing removes ≤ θ·m edges.
func e6() {
	header("E6", "Lem 5.7: well-spacing transform removes at most theta*m edges")
	n := scaled(20000, 3000)
	g := gen.WithExponentialWeights(gen.GNP(n, 6.0/float64(n), *seedFlag), 4, 48, *seedFlag)
	fmt.Printf("gnp n=%d m=%d with 48 weight classes (z=4)\n", g.N, g.M())
	fmt.Printf("%8s %6s %10s %10s %10s\n", "theta", "tau", "removed", "budget", "specials")
	for _, theta := range []float64{0.1, 0.25, 0.5} {
		for _, tau := range []int{2, 4} {
			ws := lowstretch.WellSpace(g, 4, tau, theta)
			fmt.Printf("%8.2f %6d %10d %10.0f %10d\n",
				theta, tau, len(ws.Removed), theta*float64(g.M()), len(ws.Special))
		}
	}
}

// E7 — Lemma 6.5: elimination size and round count.
func e7() {
	header("E7", "Lem 6.5: greedy elimination reaches the 2-core in O(log n) rounds")
	fmt.Printf("%-16s %8s %8s %9s %8s %10s\n", "graph", "n", "extra", "reduced", "rounds", "log2(n)")
	sizes := []int{1 << 10, 1 << 12, 1 << 14}
	if *quickFlag {
		sizes = []int{1 << 8, 1 << 10}
	}
	for _, n := range sizes {
		for _, extra := range []int{0, 16, 64} {
			rng := rand.New(rand.NewSource(*seedFlag))
			var edges []graph.Edge
			for i := 1; i < n; i++ {
				edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: 1})
			}
			for i := 0; i < extra; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					edges = append(edges, graph.Edge{U: u, V: v, W: 1})
				}
			}
			g := graph.FromEdges(n, edges)
			el := solver.GreedyElimination(g, rng, nil)
			fmt.Printf("tree+%-11d %8d %8d %9d %8d %10.1f\n",
				extra, n, extra, el.Reduced.N, el.Rounds, math.Log2(float64(n)))
		}
	}
}

// E8 — Lemma 6.1: sparsifier edge counts and empirical condition quality.
func e8() {
	header("E8", "Lem 6.1: incremental sparsifier size |E(H)| and spectral sandwich")
	side := scaled(80, 32)
	g := gen.Torus2D(side, side)
	fmt.Printf("torus %dx%d (m=%d)\n", side, side, g.M())
	// maxRayleigh(G/H) probes xᵀGx/xᵀHx on random mean-zero vectors: values
	// ≤ 1 are consistent with G ⪯ H (the lower sandwich of Lemma 6.1); the
	// κ-scaled subgraph inside H drives the ratio toward 1/κ.
	fmt.Printf("%8s %10s %10s %12s %16s\n", "kappa", "m(H)", "sampled", "avgStretch", "maxRayleigh(G/H)")
	for _, kappa := range []float64{16, 64, 256, 1024} {
		rng := rand.New(rand.NewSource(*seedFlag))
		p := solver.DefaultSparsifyParams()
		p.Kappa = kappa
		res := solver.IncrementalSparsify(g, p, rng, nil)
		// Power iteration for λmax(H⁻¹G) via dense pseudo-inverse on small
		// instances is too slow; report the random-probe Rayleigh range.
		lg := matrix.LaplacianOf(g)
		lh := matrix.LaplacianOf(res.H)
		maxRatio := 0.0
		for t := 0; t < 30; t++ {
			x := make([]float64, g.N)
			rr := rand.New(rand.NewSource(int64(t)))
			for i := range x {
				x[i] = rr.NormFloat64()
			}
			matrix.ProjectOutConstant(x)
			r := lg.QuadForm(x) / lh.QuadForm(x)
			if r > maxRatio {
				maxRatio = r
			}
		}
		fmt.Printf("%8.0f %10d %10d %12.2f %16.3f\n",
			kappa, res.H.M(), res.Sampled, res.StretchS, maxRatio)
	}
}

// E9 — Theorem 1.1: solver scaling in m and 1/ε; baselines; speedup.
func e9() {
	header("E9", "Thm 1.1: near-linear work scaling, log(1/eps) dependence, baseline comparison")
	fmt.Printf("-- (a) scaling in m (unit 2D grids, eps=1e-8) --\n")
	fmt.Printf("%8s %8s %8s %10s %14s %14s %12s %14s\n", "n", "m", "iters", "wallMs", "work", "work/m", "depth", "build work/m")
	sides := []int{32, 64, 128}
	if !*quickFlag {
		sides = append(sides, 256)
	}
	for _, side := range sides {
		g := gen.Grid2D(side, side)
		var rec wd.Recorder
		s, err := solver.New(g, solver.DefaultChainParams(), &rec)
		if err != nil {
			fmt.Println("  build error:", err)
			continue
		}
		b := randB(g.N, *seedFlag)
		t0 := time.Now()
		_, st := s.Solve(b, 1e-8)
		ms := time.Since(t0).Milliseconds()
		fmt.Printf("%8d %8d %8d %10d %14d %14.1f %12d %14.1f\n",
			g.N, g.M(), st.Iterations, ms, st.Work, float64(st.Work)/float64(g.M()), st.Depth,
			float64(rec.Work())/float64(g.M()))
	}
	fmt.Printf("-- (b) scaling in eps (grid %d^2) --\n", scaled(128, 64))
	side := scaled(128, 64)
	g := gen.Grid2D(side, side)
	s, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		fmt.Println("  build error:", err)
		return
	}
	b := randB(g.N, *seedFlag)
	fmt.Printf("%10s %8s %12s\n", "eps", "iters", "residual")
	for _, eps := range []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10} {
		_, st := s.Solve(b, eps)
		fmt.Printf("%10.0e %8d %12.2e\n", eps, st.Iterations, st.Residual)
	}
	fmt.Printf("-- (c) vs baselines on ill-conditioned graphs (eps=1e-8) --\n")
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-expw(z8)", gen.WithExponentialWeights(gen.Grid2D(side, side), 8, 8, *seedFlag)},
		{"path-cliques", gen.PathOfCliques(6, scaled(600, 200))},
		{"torus-expw(z4)", gen.WithExponentialWeights(gen.Torus2D(side, side), 4, 12, *seedFlag)},
	}
	fmt.Printf("%-16s %10s %12s %12s\n", "graph", "CG its", "Jacobi its", "chain its")
	for _, cse := range cases {
		lap := matrix.LaplacianOf(cse.g)
		comp, k := cse.g.ConnectedComponents()
		bb := randB(cse.g.N, *seedFlag+1)
		_, cgSt := solver.CG(lap, bb, comp, k, 1e-8, 60000, nil)
		_, jSt := solver.JacobiPCG(lap, bb, comp, k, 1e-8, 60000, nil)
		sw, err := solver.New(cse.g, solver.DefaultChainParams(), nil)
		if err != nil {
			fmt.Printf("%-16s chain build error: %v\n", cse.name, err)
			continue
		}
		_, chSt := sw.Solve(bb, 1e-8)
		fmt.Printf("%-16s %10d %12d %12d\n",
			cse.name, cgSt.Iterations, jSt.Iterations, chSt.Iterations)
	}
	fmt.Printf("-- (d) parallel wall-clock speedup (grid %d^2, one solve) --\n", side)
	orig := runtime.GOMAXPROCS(0)
	if orig == 1 {
		fmt.Println("   (single-core machine: wall-clock speedup not measurable here;")
		fmt.Println("    the analytic depth column in (a) is the machine-independent")
		fmt.Println("    parallelism signal — depth/work ratios stay far below 1)")
	}
	fmt.Printf("%8s %10s\n", "procs", "wallMs")
	seen := map[int]bool{}
	for _, p := range []int{1, 2, 4, orig} {
		if p > orig || seen[p] {
			continue
		}
		seen[p] = true
		runtime.GOMAXPROCS(p)
		t0 := time.Now()
		_, _ = s.Solve(b, 1e-8)
		fmt.Printf("%8d %10d\n", p, time.Since(t0).Milliseconds())
	}
	runtime.GOMAXPROCS(orig)
}

// E10 — applications: sparsifier quality, approximate max flow vs Dinic.
func e10() {
	header("E10", "Applications: [SS08] sparsifier and [CKM+10] approx max-flow vs exact")
	n := scaled(600, 200)
	g := gen.GNP(n, 12.0/float64(n), *seedFlag)
	fmt.Printf("-- (a) spectral sparsifier on gnp n=%d m=%d --\n", g.N, g.M())
	fmt.Printf("%8s %8s %12s\n", "q/n", "m_H", "distortion")
	for _, mult := range []int{4, 8, 16} {
		h, err := apps.SpectralSparsifier(g, mult*g.N, 0, *seedFlag)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Printf("%8d %8d %12.3f\n", mult, h.M(), apps.QuadFormDistortion(g, h, 25, *seedFlag))
	}
	fmt.Printf("-- (b) approximate max flow vs Dinic --\n")
	fmt.Printf("%-14s %10s %10s %8s %8s\n", "graph", "exact", "approx", "ratio", "solves")
	cases := map[string]*graph.Graph{
		"grid8x8":   gen.WithUniformWeights(gen.Grid2D(8, 8), 1, 4, *seedFlag),
		"barbell":   gen.Barbell(6, 4),
		"gnp-small": gen.GNP(60, 0.15, *seedFlag),
	}
	for _, name := range []string{"grid8x8", "barbell", "gnp-small"} {
		cg := cases[name]
		s, t := 0, cg.N-1
		exact := apps.MaxFlowExact(cg, s, t)
		res, err := apps.ApproxMaxFlow(cg, s, t, 0.1, 25)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Printf("%-14s %10.3f %10.3f %8.3f %8d\n",
			name, exact, res.Value, res.Value/exact, res.Solves)
	}
}

func randB(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	matrix.ProjectOutConstant(b)
	return b
}
