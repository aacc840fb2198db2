package chainio

import (
	"encoding/binary"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/solver"
)

// FuzzDecode feeds mutated snapshot blobs to Decode. The checksum trailer is
// resealed after each mutation, so the inputs get past the SHA-256 check and
// reach the payload parser and AssembleSnapshot's validation. Decode must
// return a solver or an error, and never panic. The seeds are an 8² blob (a
// chain with no level) and a 20² blob whose chain recurses through levels.
func FuzzDecode(f *testing.F) {
	for _, tc := range []struct {
		g         *graph.Graph
		minLevels int
	}{{gen.Grid2D(8, 8), 0}, {gen.Grid2D(20, 20), 2}} {
		s, err := solver.NewWithOptions(tc.g, pinnedDepthParams(tc.g), solver.Options{Workers: 1}, nil)
		if err != nil {
			f.Fatal(err)
		}
		if s.Chain.Depth() < tc.minLevels {
			f.Fatalf("seed chain has %d levels, want >= %d", s.Chain.Depth(), tc.minLevels)
		}
		data, err := Encode(s, graph.CanonicalID(tc.g))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= headerLen+trailerLen {
			// Keep the magic and version intact (unit tests cover their
			// rejection), so mutations spend their budget on the payload.
			copy(data, magic[:])
			binary.LittleEndian.PutUint32(data[magicLen:], Version)
			reseal(data)
		}
		s, err := Decode(data, "", solver.Options{Workers: 1})
		if (s == nil) == (err == nil) {
			t.Fatalf("Decode returned solver %v and error %v", s != nil, err)
		}
	})
}
