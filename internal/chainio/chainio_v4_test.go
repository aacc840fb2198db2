package chainio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/solver"
)

// Format-v4 coverage: the count-based default chain, whose bottom is a
// sparse min-degree LDLᵀ over hundreds of vertices. The elimination order,
// column pointers, row positions, L, D and the truncation record must
// round-trip exactly — restore skips the analysis and the factorization and
// still solves bit-for-bit — and a blob whose factor fields are corrupted
// must be rejected before the factor is ever indexed.

func sparseBottomGraphs() []struct {
	name string
	g    *graph.Graph
} {
	g1, g2 := gen.Grid2D(30, 34), gen.PreferentialAttachment(700, 3, 5)
	edges := append([]graph.Edge(nil), g1.Edges...)
	for _, e := range g2.Edges {
		edges = append(edges, graph.Edge{U: e.U + g1.N, V: e.V + g1.N, W: e.W})
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"grid2d:40x40", gen.Grid2D(40, 40)},
		{"expw-grid:36x36", gen.WithExponentialWeights(gen.Grid2D(36, 36), 8, 8, 1)},
		{"pa:3000:4", gen.PreferentialAttachment(3000, 4, 3)},
		{fmt.Sprintf("union(n=%d+%d)", g1.N, g2.N), graph.FromEdges(g1.N+g2.N, edges)},
	}
}

func buildDefaultSolver(t *testing.T, g *graph.Graph, workers int) *solver.Solver {
	t.Helper()
	s, err := solver.NewWithOptions(g, solver.DefaultChainParams(), solver.Options{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func TestRoundTripBitwiseV4SparseBottom(t *testing.T) {
	const eps = 1e-8
	for _, tb := range sparseBottomGraphs() {
		t.Run(tb.name, func(t *testing.T) {
			orig := buildDefaultSolver(t, tb.g, 0)
			if bi := orig.Chain.BottomInfo(); bi.N < 100 || bi.NNZL < bi.N {
				t.Fatalf("bottom n=%d nnz(L)=%d is trivial; the blob would not exercise the v4 fields", bi.N, bi.NNZL)
			}
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
				oc, rc := orig.Chain, restored.Chain
				if !reflect.DeepEqual(rc.Schedule(), oc.Schedule()) {
					t.Fatalf("workers=%d: schedule differs: %+v vs %+v", w, rc.Schedule(), oc.Schedule())
				}
				if !reflect.DeepEqual(rc.BottomInfo(), oc.BottomInfo()) {
					t.Fatalf("workers=%d: bottom info differs: %+v vs %+v", w, rc.BottomInfo(), oc.BottomInfo())
				}
				if !reflect.DeepEqual(rc.Bottom.Order(), oc.Bottom.Order()) || !reflect.DeepEqual(rc.Bottom.Factor(), oc.Bottom.Factor()) {
					t.Fatalf("workers=%d: restored bottom factor differs", w)
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

// TestRoundTripBitwiseCutChain: a chain that calibrate cut bottom-up
// (levels and their probes dropped, the cut level factored as the bottom)
// restores with the same truncation record and solves bit for bit like the
// built chain at Workers 1 and 2. The tight-bound case keeps level 1's
// rejected probe above the cut at level 2 while level 3's is dropped.
func TestRoundTripBitwiseCutChain(t *testing.T) {
	const eps = 1e-8
	tight := solver.DefaultChainParams()
	tight.MaxBottomVertices = 150
	for _, tc := range []struct {
		spec   string
		params solver.ChainParams
	}{
		{"regular:1500:8", solver.DefaultChainParams()},
		{"pa:3000:4", solver.DefaultChainParams()},
		{"regular:2000:8", tight},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			g, err := gen.FromSpec(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := solver.NewWithOptions(g, tc.params, solver.Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			oc := orig.Chain
			if !strings.Contains(oc.Stop, "cut bottom-up") {
				t.Fatalf("chain was not cut: %q", oc.Stop)
			}
			for _, pr := range oc.Probes {
				if pr.Level > oc.Depth() {
					t.Fatalf("probe %+v names a dropped level (depth %d)", pr, oc.Depth())
				}
			}
			id := graph.CanonicalID(g)
			data, err := Encode(orig, id)
			if err != nil {
				t.Fatal(err)
			}
			bs := randomRHS(g.N, 0x5eed, 3)
			xRef, _ := orig.Solve(bs[0], eps)
			xsRef, _ := orig.SolveBatch(bs, eps)
			for _, w := range []int{1, 2} {
				restored, err := Decode(data, id, solver.Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: decode: %v", w, err)
				}
				rc := restored.Chain
				if !reflect.DeepEqual(rc.Probes, oc.Probes) || rc.Stop != oc.Stop || !reflect.DeepEqual(rc.Schedule(), oc.Schedule()) {
					t.Fatalf("workers=%d: truncation record differs: %+v %q vs %+v %q", w, rc.Probes, rc.Stop, oc.Probes, oc.Stop)
				}
				x, _ := restored.Solve(bs[0], eps)
				assertBitwiseEqual(t, fmt.Sprintf("workers=%d solve", w), xRef, x)
				xs, _ := restored.SolveBatch(bs, eps)
				for c := range xsRef {
					assertBitwiseEqual(t, fmt.Sprintf("workers=%d batch col %d", w, c), xsRef[c], xs[c])
				}
			}
		})
	}
}

func TestCorruptionRejectedV4(t *testing.T) {
	g := gen.Grid2D(40, 40)
	s := buildDefaultSolver(t, g, 1)
	f := s.Chain.Bottom.Factor()
	if f.NNZ() < 1000 || len(s.Chain.Probes) == 0 {
		t.Fatal("testbed blob does not exercise the v4 fields")
	}
	id := graph.CanonicalID(g)
	data, err := Encode(s, id)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) error {
		_, err := Decode(b, id, solver.Options{Workers: 1})
		return err
	}
	if err := decode(data); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}

	t.Run("bit-flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(201))
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), data...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= 1 << rng.Intn(8)
			if err := decode(mut); err == nil {
				t.Fatalf("flip at byte %d accepted", pos)
			}
		}
	})

	// The factor section is the blob's tail: order, column pointers, row
	// positions, L, D, probes, stop. Resealed flips there reach the
	// structural validation; it may accept a flipped value bit, but it must
	// never panic, and a solve on whatever it accepts must not either.
	tail := len(data) - trailerLen - (4*len(s.Chain.Bottom.Order()) + 4*len(f.ColPtr) + 12*f.NNZ() + 8*len(f.D) + 200)
	t.Run("bit-flips-resealed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(202))
		b := randomRHS(g.N, 7, 1)[0]
		for trial := 0; trial < 400; trial++ {
			mut := append([]byte(nil), data...)
			pos := tail + rng.Intn(len(mut)-trailerLen-tail)
			mut[pos] ^= 1 << rng.Intn(8)
			reseal(mut)
			if rs, err := Decode(mut, id, solver.Options{Workers: 1}); err == nil {
				rs.Solve(b, 1e-4)
			}
		}
	})

	// Targeted, resealed index corruption: each must be caught by name.
	orderOff := len(data) - trailerLen - len(s.Chain.Stop) - 2 - 4 - 25*len(s.Chain.Probes) -
		8*len(f.D) - 8 - 12*f.NNZ() - 16 - 4*len(f.ColPtr) - 8 - 4*len(s.Chain.Bottom.Order())
	colPtrOff := orderOff + 4*len(s.Chain.Bottom.Order()) + 8
	rowPosOff := colPtrOff + 4*len(f.ColPtr) + 8
	if got := int(binary.LittleEndian.Uint32(data[orderOff:])); got != s.Chain.Bottom.Order()[0] {
		t.Fatalf("offset arithmetic is off: order[0] reads %d, want %d", got, s.Chain.Bottom.Order()[0])
	}
	put := func(mut []byte, off int, v int32) { binary.LittleEndian.PutUint32(mut[off:], uint32(v)) }
	for name, corrupt := range map[string]func(mut []byte){
		"order-duplicate":    func(mut []byte) { put(mut, orderOff+4, int32(s.Chain.Bottom.Order()[0])) },
		"order-out-of-range": func(mut []byte) { put(mut, orderOff, int32(s.Chain.BottomG.N)) },
		"order-negative":     func(mut []byte) { put(mut, orderOff, -1) },
		"order-grounded":     func(mut []byte) { put(mut, orderOff, int32(s.Chain.BottomG.N-1)) },
		"colptr-decreasing":  func(mut []byte) { put(mut, colPtrOff+4*5, f.ColPtr[6]+1) },
		"row-on-diagonal":    func(mut []byte) { put(mut, rowPosOff, 0) },
		"row-out-of-range":   func(mut []byte) { put(mut, rowPosOff+4*(f.NNZ()-1), int32(f.Dim())) },
		"row-negative":       func(mut []byte) { put(mut, rowPosOff, -7) },
	} {
		t.Run(name, func(t *testing.T) {
			mut := append([]byte(nil), data...)
			corrupt(mut)
			reseal(mut)
			if err := decode(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}

	t.Run("truncations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(203))
		cuts := []int{orderOff, colPtrOff, rowPosOff, len(data) - trailerLen, len(data) - 1}
		for trial := 0; trial < 30; trial++ {
			cuts = append(cuts, tail+rng.Intn(len(data)-tail))
		}
		for _, n := range cuts {
			if err := decode(data[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
			}
		}
	})

	t.Run("older-versions", func(t *testing.T) {
		for v := byte(1); v < Version; v++ {
			mut := append([]byte(nil), data...)
			mut[magicLen] = v
			reseal(mut)
			if err := decode(mut); !errors.Is(err, ErrVersion) {
				t.Fatalf("version %d: got %v, want ErrVersion", v, err)
			}
		}
	})
}
