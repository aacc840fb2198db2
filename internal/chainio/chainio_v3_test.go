package chainio

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/solver"
)

// Format-v3 coverage: chains carrying the new per-level payload — float32
// value storage (gate outcome + f64 baseline κ) and Cuthill–McKee
// permutations — must round-trip bit-identically (restore re-applies
// permute-then-convert in build order), and blobs with corrupted v3 fields
// must be rejected as cleanly as any other corruption.

func buildVariantSolver(t *testing.T, g *graph.Graph, prec solver.Precision, reorder bool, workers int) *solver.Solver {
	t.Helper()
	params := pinnedDepthParams(g)
	params.Seed = 42
	params.Precision = prec
	params.ReorderLevels = reorder
	s, err := solver.NewWithOptions(g, params, solver.Options{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func TestRoundTripBitwiseV3Variants(t *testing.T) {
	const eps = 1e-8
	variants := []struct {
		name    string
		prec    solver.Precision
		reorder bool
	}{
		{"f32", solver.PrecisionF32, false},
		{"f64+reorder", solver.PrecisionF64, true},
		{"f32+reorder", solver.PrecisionF32, true},
	}
	for _, tb := range testbedGraphs() {
		for _, v := range variants {
			t.Run(tb.name+"/"+v.name, func(t *testing.T) {
				orig := buildVariantSolver(t, tb.g, v.prec, v.reorder, 0)
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
					// The restored chain must carry the same gate and layout
					// outcomes, not just solve identically.
					if restored.Chain.F32Levels() != orig.Chain.F32Levels() {
						t.Fatalf("workers=%d: restored %d f32 levels, want %d",
							w, restored.Chain.F32Levels(), orig.Chain.F32Levels())
					}
					if restored.Chain.ReorderedLevels() != orig.Chain.ReorderedLevels() {
						t.Fatalf("workers=%d: restored %d reordered levels, want %d",
							w, restored.Chain.ReorderedLevels(), orig.Chain.ReorderedLevels())
					}
					if so, sr := orig.Chain.Schedule(), restored.Chain.Schedule(); !reflect.DeepEqual(so, sr) {
						t.Fatalf("workers=%d: schedule differs: %+v vs %+v", w, sr, so)
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
}

// TestCorruptionRejectedV3 re-runs the corruption sweep over a blob whose
// payload exercises every v3 field (f32 flags, baseline κs, permutation
// arrays): bit flips must trip the checksum, resealed flips must never panic
// (a flipped permutation entry has to be caught by the bijection check, a
// flipped level-0 flag by the exemption check), and truncations inside the
// new fields must fail with ErrCorrupt.
func TestCorruptionRejectedV3(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s := buildVariantSolver(t, g, solver.PrecisionF32, true, 1)
	if s.Chain.F32Levels() == 0 || s.Chain.ReorderedLevels() == 0 {
		t.Fatal("testbed blob does not exercise the v3 fields")
	}
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
		rng := rand.New(rand.NewSource(101))
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
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte(nil), data...)
			pos := rng.Intn(len(mut) - trailerLen)
			mut[pos] ^= 1 << rng.Intn(8)
			reseal(mut)
			_ = decode(mut) // must not panic; error or not depends on the bit
		}
	})

	t.Run("truncations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		cuts := []int{0, headerLen, len(data) / 2, len(data) - trailerLen, len(data) - 1}
		for trial := 0; trial < 20; trial++ {
			cuts = append(cuts, headerLen+rng.Intn(len(data)-headerLen))
		}
		for _, n := range cuts {
			if err := decode(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
			}
		}
	})
}
