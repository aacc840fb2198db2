package chainio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/solver"
)

// testbedGraphs mirrors the solver fuzz suite's families: the graphs the
// service actually meets, including a disconnected union (multi-component
// restores exercise the recomputed grounding bookkeeping).
func testbedGraphs() []struct {
	name string
	g    *graph.Graph
} {
	g1 := gen.Grid2D(6, 7)
	g2 := gen.PreferentialAttachment(90, 2, 7)
	var edges []graph.Edge
	edges = append(edges, g1.Edges...)
	for _, e := range g2.Edges {
		edges = append(edges, graph.Edge{U: e.U + g1.N, V: e.V + g1.N, W: e.W})
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"grid2d:12x9", gen.Grid2D(12, 9)},
		{"regular:220:4", gen.RandomRegular(220, 4, 11)},
		{"pa:300:3", gen.PreferentialAttachment(300, 3, 12)},
		{fmt.Sprintf("union(n=%d+%d)", g1.N, g2.N), graph.FromEdges(g1.N+g2.N, edges)},
	}
}

// pinnedDepthParams pins the chain depth with the explicit §6.3 size rule at
// ⌈m^(1/3)⌉+100 edges, 100 being the solver's direct-solve vertex floor
// (what the default was before the count-based rule), so the v1–v3 suites
// keep round-tripping multi-level chains; chainio_v4_test.go covers the
// count-based default and its sparse bottom.
func pinnedDepthParams(g *graph.Graph) solver.ChainParams {
	params := solver.DefaultChainParams()
	params.BottomSizeEdges = int(math.Ceil(math.Cbrt(float64(g.M())))) + 100
	return params
}

func buildSolver(t *testing.T, g *graph.Graph, workers int) *solver.Solver {
	t.Helper()
	params := pinnedDepthParams(g)
	params.Seed = 42
	s, err := solver.NewWithOptions(g, params, solver.Options{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func randomRHS(n int, seed int64, cols int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	bs := make([][]float64, cols)
	for c := range bs {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		bs[c] = b
	}
	return bs
}

func assertBitwiseEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: differs at entry %d: %x vs %x",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestRoundTripBitwise is the keystone: a restored chain must produce
// bit-identical Solve and SolveBatch results to the original, for every
// testbed family and every Workers setting — a snapshot is a cache, not an
// approximation.
func TestRoundTripBitwise(t *testing.T) {
	const eps = 1e-8
	for _, tb := range testbedGraphs() {
		t.Run(tb.name, func(t *testing.T) {
			orig := buildSolver(t, tb.g, 0)
			id := graph.CanonicalID(tb.g)
			data, err := Encode(orig, id)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			bs := randomRHS(tb.g.N, 0x5eed, 3)
			xRef, stRef := orig.Solve(bs[0], eps)
			xsRef, _ := orig.SolveBatch(bs, eps)
			for _, w := range []int{1, 2, 4} {
				restored, err := Decode(data, id, solver.Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: decode: %v", w, err)
				}
				x, st := restored.Solve(bs[0], eps)
				if st.Iterations != stRef.Iterations {
					t.Fatalf("workers=%d: %d iterations vs %d", w, st.Iterations, stRef.Iterations)
				}
				assertBitwiseEqual(t, fmt.Sprintf("workers=%d solve", w), xRef, x)
				xs, _ := restored.SolveBatch(bs, eps)
				for c := range xsRef {
					assertBitwiseEqual(t, fmt.Sprintf("workers=%d batch col %d", w, c), xsRef[c], xs[c])
				}
			}
		})
	}
}

// TestRoundTripPreservesShape locks the cheap structural invariants: same
// chain depth, same per-level edge counts and schedule, same memory-model
// surface (MaxIter).
func TestRoundTripPreservesShape(t *testing.T) {
	g := gen.Grid2D(10, 10)
	orig := buildSolver(t, g, 1)
	id := graph.CanonicalID(g)
	data, err := Encode(orig, id)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(data, id, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Chain.Depth() != orig.Chain.Depth() {
		t.Fatalf("depth %d vs %d", restored.Chain.Depth(), orig.Chain.Depth())
	}
	ec, eo := restored.Chain.EdgeCounts(), orig.Chain.EdgeCounts()
	if len(ec) != len(eo) {
		t.Fatalf("edge-count levels %d vs %d", len(ec), len(eo))
	}
	for i := range eo {
		if ec[i] != eo[i] {
			t.Fatalf("level %d edge count %d vs %d", i, ec[i], eo[i])
		}
	}
	if restored.MaxIter != orig.MaxIter {
		t.Fatalf("MaxIter %d vs %d", restored.MaxIter, orig.MaxIter)
	}
	if so, sr := orig.Chain.Schedule(), restored.Chain.Schedule(); !reflect.DeepEqual(so, sr) {
		t.Fatalf("schedule differs: %+v vs %+v", sr, so)
	}
}

// reseal recomputes the checksum trailer after a deliberate mutation, so
// tests can reach the validation layers underneath it.
func reseal(data []byte) {
	sum := sha256.Sum256(data[:len(data)-trailerLen])
	copy(data[len(data)-trailerLen:], sum[:])
}

// TestCorruptionRejected is the fuzz sweep the issue asks for: bit flips,
// truncations, version skew, and wrong-graph blobs must all fail with a
// clean typed error — never a panic, never a silently-wrong chain.
func TestCorruptionRejected(t *testing.T) {
	g := gen.Grid2D(8, 8)
	s := buildSolver(t, g, 1)
	id := graph.CanonicalID(g)
	data, err := Encode(s, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data, id, solver.Options{Workers: 1}); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	decode := func(b []byte) error {
		_, err := Decode(b, id, solver.Options{Workers: 1})
		return err
	}

	t.Run("bit-flips", func(t *testing.T) {
		// Without a resealed trailer every flip must trip the checksum.
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), data...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= 1 << rng.Intn(8)
			if err := decode(mut); err == nil {
				t.Fatalf("flip at byte %d accepted", pos)
			}
		}
	})

	t.Run("bit-flips-resealed", func(t *testing.T) {
		// Resealing the trailer gets past the checksum; the structural and
		// semantic validation underneath must still reject or, at minimum,
		// never panic — and a flip inside the input graph must be caught by
		// the content-address recheck.
		rng := rand.New(rand.NewSource(100))
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), data...)
			pos := rng.Intn(len(mut) - trailerLen)
			mut[pos] ^= 1 << rng.Intn(8)
			reseal(mut)
			_ = decode(mut) // must not panic; error or not depends on the bit
		}
	})

	t.Run("truncations", func(t *testing.T) {
		for _, n := range []int{0, 1, headerLen - 1, headerLen, len(data) / 2, len(data) - trailerLen, len(data) - 1} {
			if err := decode(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), data...), 0xde, 0xad)
		if err := decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[magicLen] = Version + 1 // version u32 LE low byte
		reseal(mut)
		if err := decode(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] ^= 0xff
		reseal(mut)
		if err := decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wrong-id-requested", func(t *testing.T) {
		other := graph.CanonicalID(gen.Grid2D(3, 3))
		if _, err := Decode(data, other, solver.Options{Workers: 1}); !errors.Is(err, ErrWrongGraph) {
			t.Fatalf("got %v, want ErrWrongGraph", err)
		}
	})

	t.Run("tampered-id-resealed", func(t *testing.T) {
		// Rewrite the stored id (and reseal) so header checks pass: the
		// embedded graph no longer hashes to the stored id, which the
		// content-address recheck must catch.
		mut := append([]byte(nil), data...)
		pos := headerLen // first id byte is 'g'; flip a hex digit after it
		if mut[pos+1] == 'a' {
			mut[pos+1] = 'b'
		} else {
			mut[pos+1] = 'a'
		}
		reseal(mut)
		if _, err := Decode(mut, "", solver.Options{Workers: 1}); !errors.Is(err, ErrWrongGraph) {
			t.Fatalf("got %v, want ErrWrongGraph", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if err := decode(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestDecodeBoundsLaterGraphs: a resealed blob whose level or bottom graph
// claims 2^26 vertices is rejected as corrupt before any CSR of that size is
// built. Levels only shrink, so no graph after the id-checked input may be
// larger than it.
func TestDecodeBoundsLaterGraphs(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s := buildSolver(t, g, 1)
	if s.Chain.Depth() < 2 {
		t.Fatalf("chain has %d levels; the test needs a level graph in the blob", s.Chain.Depth())
	}
	id := graph.CanonicalID(g)
	data, err := Encode(s, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"level", s.Chain.Levels[1].G}, {"bottom", s.Chain.BottomG}} {
		t.Run(tc.name, func(t *testing.T) {
			// The graph's encoding (n, m, edges) is unique in the blob; its
			// first field is the vertex count.
			var enc bytes.Buffer
			encodeGraph(writer{&enc}, tc.g)
			off := bytes.Index(data, enc.Bytes())
			if off < 0 {
				t.Fatal("graph encoding not found in the blob")
			}
			mut := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(mut[off:], 1<<26)
			reseal(mut)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(mut, id, solver.Options{Workers: 1})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
				t.Fatalf("rejecting the blob allocated %d bytes", grew)
			}
		})
	}
}

// TestSnapshotID parses the header-only accessor.
func TestSnapshotID(t *testing.T) {
	g := gen.Grid2D(5, 5)
	s := buildSolver(t, g, 1)
	id := graph.CanonicalID(g)
	data, err := Encode(s, id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SnapshotID(data)
	if err != nil || got != id {
		t.Fatalf("SnapshotID = %q, %v; want %q", got, err, id)
	}
	if _, err := SnapshotID(data[:4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: got %v, want ErrCorrupt", err)
	}
}

// TestWeightZeroBridgeConverges: two 20×20 grids joined only by a weight-0
// edge. The chain drops weight-0 edges when it merges the input, so its top
// level has two components, and the outer PCG must project b per component
// of that same graph. Projected over the input's one component (the weight-0
// edge still joins it), b = e₀ − e₇₉₉ is not in range(L) and the solve stalls
// at MaxIter. Checked on a built solver and on one restored from its
// snapshot.
func TestWeightZeroBridgeConverges(t *testing.T) {
	a := gen.Grid2D(20, 20)
	edges := append([]graph.Edge(nil), a.Edges...)
	for _, e := range a.Edges {
		edges = append(edges, graph.Edge{U: e.U + a.N, V: e.V + a.N, W: e.W})
	}
	edges = append(edges, graph.Edge{U: a.N - 1, V: a.N, W: 0})
	g := graph.FromEdges(2*a.N, edges)
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1

	built, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := graph.CanonicalID(g)
	data, err := Encode(built, id)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(data, id, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-8
	for _, tc := range []struct {
		name string
		s    *solver.Solver
	}{{"built", built}, {"restored", restored}} {
		if tc.s.NumComp != 2 {
			t.Fatalf("%s: %d components, want 2", tc.name, tc.s.NumComp)
		}
		x, st := tc.s.Solve(b, eps)
		if !st.Converged {
			t.Fatalf("%s: not converged after %d iterations (residual %.3g)", tc.name, st.Iterations, st.Residual)
		}
		if r := tc.s.Residual(x, b); r > 10*eps {
			t.Fatalf("%s: residual %.3g", tc.name, r)
		}
	}
}
