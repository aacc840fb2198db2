package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/decomp"
	"parlap/internal/gen"
	"parlap/internal/graph"
)

// The cross-worker equivalence fuzz suite: a seeded generator sweeps random
// graph specs across the families the service actually meets (grids,
// random-regular meshes, preferential attachment, disconnected unions) and
// asserts that the Workers knob changes NOTHING — the decomposition, the
// built chain (level graphs compared edge-for-edge with exact weight bits),
// and single + batch solves are bitwise identical for
// Workers ∈ {1, 2, 4, GOMAXPROCS}. With the jittered-BFS frontier rounds
// and the segmented masked projection now parallel, this closes the loop
// the PR-1 suite opened: no stage of the pipeline is exempt.

// fuzzWorkers: 1 is the sequential reference; 0 = GOMAXPROCS.
var fuzzWorkers = []int{2, 4, 0}

// randomFuzzGraph draws one spec from the sweep families.
func randomFuzzGraph(rng *rand.Rand) (string, *graph.Graph) {
	build := func() (string, *graph.Graph) {
		switch rng.Intn(4) {
		case 0:
			r, c := 8+rng.Intn(16), 8+rng.Intn(16)
			return fmt.Sprintf("grid2d:%dx%d", r, c), gen.Grid2D(r, c)
		case 1:
			n, d := 100+rng.Intn(400), 3+rng.Intn(3)
			return fmt.Sprintf("regular:%d:%d", n, d), gen.RandomRegular(n, d, rng.Int63())
		case 2:
			n, m := 150+rng.Intn(450), 2+rng.Intn(3)
			return fmt.Sprintf("pa:%d:%d", n, m), gen.PreferentialAttachment(n, m, rng.Int63())
		default:
			// Disconnected union of two smaller draws (multi-component
			// chains exercise the masked projection's segmented sums).
			g1 := gen.Grid2D(5+rng.Intn(8), 5+rng.Intn(8))
			g2 := gen.PreferentialAttachment(80+rng.Intn(150), 2, rng.Int63())
			var edges []graph.Edge
			edges = append(edges, g1.Edges...)
			for _, e := range g2.Edges {
				edges = append(edges, graph.Edge{U: e.U + g1.N, V: e.V + g1.N, W: e.W})
			}
			u := graph.FromEdges(g1.N+g2.N, edges)
			return fmt.Sprintf("union(n=%d+%d)", g1.N, g2.N), u
		}
	}
	return build()
}

// sameEdges compares two edge lists with exact float64 weight bits.
func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V ||
			math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

func TestFuzzCrossWorkerEquivalence(t *testing.T) {
	const sweeps = 8
	rng := rand.New(rand.NewSource(20260727))
	for sweep := 0; sweep < sweeps; sweep++ {
		spec, g := randomFuzzGraph(rng)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("%02d-%s", sweep, spec), func(t *testing.T) {
			// (1) Partition: the decomposition behind AKPW must be bitwise
			// identical across workers for identical rng streams.
			partWith := func(w int) *decomp.PartitionResult {
				p := decomp.PracticalParams()
				p.Workers = w
				pr, _ := decomp.Partition(g, nil, 1, 8, p, rand.New(rand.NewSource(seed)), nil)
				return pr
			}
			refPart := partWith(1)
			for _, w := range fuzzWorkers {
				got := partWith(w)
				if got.NumComp != refPart.NumComp || got.Trials != refPart.Trials {
					t.Fatalf("workers=%d: partition shape differs", w)
				}
				for v := range refPart.Comp {
					if got.Comp[v] != refPart.Comp[v] {
						t.Fatalf("workers=%d: partition differs at vertex %d", w, v)
					}
				}
			}

			// (2) Chain build: every level graph (and the bottom) must match
			// edge-for-edge with exact weight bits, and the calibrated
			// schedule must agree.
			params := deepChainParams(g)
			params.Seed = seed
			buildWith := func(w int) *Solver {
				s, err := NewWithOptions(g, params, Options{Workers: w}, nil)
				if err != nil {
					t.Fatalf("workers=%d: build: %v", w, err)
				}
				return s
			}
			ref := buildWith(1)
			solvers := map[int]*Solver{1: ref}
			// The chain keeps only B_i's elimination, so B_i is rebuilt
			// here: IncrementalSparsify on each level's graph, at the
			// level's κ, from a per-level seeded rng.
			sparsWith := func(w, i int) *graph.Graph {
				lvl := &ref.Chain.Levels[i]
				sp := params.Sparsify
				sp.Kappa, sp.Workers = lvl.Kappa, w
				return IncrementalSparsify(lvl.G, sp, rand.New(rand.NewSource(seed+int64(i))), nil).H
			}
			refH := make([]*graph.Graph, ref.Chain.Depth())
			for i := range refH {
				refH[i] = sparsWith(1, i)
			}
			for _, w := range fuzzWorkers {
				s := buildWith(w)
				solvers[w] = s
				if s.Chain.Depth() != ref.Chain.Depth() {
					t.Fatalf("workers=%d: chain depth %d vs %d", w, s.Chain.Depth(), ref.Chain.Depth())
				}
				for i := range ref.Chain.Levels {
					lr, lg := &ref.Chain.Levels[i], &s.Chain.Levels[i]
					if !sameEdges(lr.G.Edges, lg.G.Edges) {
						t.Fatalf("workers=%d: level %d graph differs", w, i)
					}
					if !sameEdges(refH[i].Edges, sparsWith(w, i).Edges) {
						t.Fatalf("workers=%d: level %d sparsifier differs", w, i)
					}
					if lr.ChebIts != lg.ChebIts ||
						math.Float64bits(lr.EigHi) != math.Float64bits(lg.EigHi) ||
						math.Float64bits(lr.EigLo) != math.Float64bits(lg.EigLo) {
						t.Fatalf("workers=%d: level %d schedule differs", w, i)
					}
					if len(lr.Elim.Ops) != len(lg.Elim.Ops) {
						t.Fatalf("workers=%d: level %d op log differs", w, i)
					}
				}
				if !sameEdges(ref.Chain.BottomG.Edges, s.Chain.BottomG.Edges) {
					t.Fatalf("workers=%d: bottom graph differs", w)
				}
			}

			// (3) Solve and SolveBatch: bitwise identical solutions and
			// identical iteration counts across every worker setting.
			const eps = 1e-8
			bs := make([][]float64, 3)
			brng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for c := range bs {
				b := make([]float64, g.N)
				for i := range b {
					b[i] = brng.NormFloat64()
				}
				bs[c] = b
			}
			xRef, stRef := ref.Solve(bs[0], eps)
			if !stRef.Converged {
				t.Fatalf("solve did not converge: %+v", stRef)
			}
			xsRef, _ := ref.SolveBatch(bs, eps)
			for _, w := range fuzzWorkers {
				s := solvers[w]
				x, st := s.Solve(bs[0], eps)
				if st.Iterations != stRef.Iterations {
					t.Fatalf("workers=%d: %d iterations vs %d", w, st.Iterations, stRef.Iterations)
				}
				for i := range xRef {
					if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
						t.Fatalf("workers=%d: solve differs at entry %d", w, i)
					}
				}
				xs, _ := s.SolveBatch(bs, eps)
				for c := range xsRef {
					for i := range xsRef[c] {
						if math.Float64bits(xs[c][i]) != math.Float64bits(xsRef[c][i]) {
							t.Fatalf("workers=%d: batch col %d differs at entry %d", w, c, i)
						}
					}
				}
			}
		})
	}
}

// TestFuzzPrecisionLayoutEquivalence keeps the accuracy contract of the
// former value-precision × level-layout sweep now that the chain has one
// precision (float64) and one layout (natural vertex order): how the chain
// is built changes the preconditioner, never the answer. Per random graph,
// a depth-pinned chain and one built from a differently seeded sparsifier
// must each solve bitwise identically across worker counts (single and
// batch paths), and their solutions must agree within 10·eps in the A-norm.
func TestFuzzPrecisionLayoutEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chain-build sweeps are too heavy for -short")
	}
	sweeps := 5
	if raceDetectorEnabled {
		// Chain builds are ~20x slower under the race detector; two sweeps
		// still cover both chain shapes while keeping the package inside
		// the CI race budget. The full five run in the non-race suite.
		sweeps = 2
	}
	const eps = 1e-6
	rng := rand.New(rand.NewSource(20260808))
	for sweep := 0; sweep < sweeps; sweep++ {
		spec, g := randomFuzzGraph(rng)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("%02d-%s", sweep, spec), func(t *testing.T) {
			b := make([]float64, g.N)
			brng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := range b {
				b[i] = brng.NormFloat64()
			}
			bs := [][]float64{b, b, b}
			var firstX []float64
			var firstS *Solver
			for _, cfg := range []struct {
				name string
				seed int64
			}{{"seeded", seed}, {"reseeded", seed + 1}} {
				params := deepChainParams(g)
				params.Seed = cfg.seed
				build := func(w int) *Solver {
					s, err := NewWithOptions(g, params, Options{Workers: w}, nil)
					if err != nil {
						t.Fatalf("%s workers=%d: build: %v", cfg.name, w, err)
					}
					return s
				}
				ref := build(1)
				xRef, stRef := ref.Solve(b, eps)
				if !stRef.Converged {
					t.Fatalf("%s: solve did not converge: %+v", cfg.name, stRef)
				}
				xsRef, _ := ref.SolveBatch(bs, eps)
				for _, w := range []int{2, 4} {
					s := build(w)
					x, st := s.Solve(b, eps)
					if st.Iterations != stRef.Iterations {
						t.Fatalf("%s workers=%d: %d iterations vs %d", cfg.name, w, st.Iterations, stRef.Iterations)
					}
					for i := range xRef {
						if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
							t.Fatalf("%s workers=%d: solve differs at entry %d", cfg.name, w, i)
						}
					}
					xs, _ := s.SolveBatch(bs, eps)
					for c := range xsRef {
						for i := range xsRef[c] {
							if math.Float64bits(xs[c][i]) != math.Float64bits(xsRef[c][i]) {
								t.Fatalf("%s workers=%d: batch col %d differs at entry %d", cfg.name, w, c, i)
							}
						}
					}
				}
				if firstS == nil {
					firstX, firstS = xRef, ref
					continue
				}
				if d := relANorm(firstS, xRef, firstX); d > 10*eps {
					t.Fatalf("%s: solution %.3e from the first seed's in the A-norm, want <= %g", cfg.name, d, 10*eps)
				}
			}
		})
	}
}

// relANorm returns ‖x−y‖_A / ‖y‖_A under s's Laplacian.
func relANorm(s *Solver, x, y []float64) float64 {
	n := len(x)
	d := make([]float64, n)
	for i := range d {
		d[i] = x[i] - y[i]
	}
	ad := make([]float64, n)
	ay := make([]float64, n)
	s.Lap.MulVecW(1, d, ad)
	s.Lap.MulVecW(1, y, ay)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		num += d[i] * ad[i]
		den += y[i] * ay[i]
	}
	return math.Sqrt(num / den)
}
