package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
)

// CanonicalID returns the canonical content address of g: a SHA-256 over the
// vertex count and the (u ≤ v)-normalized, sorted edge multiset with exact
// float64 weight bits, truncated to 128 bits (collision-infeasible; 64 bits
// would be birthday-searchable). Two graphs hash equal iff they describe the
// same weighted multigraph up to edge order and endpoint orientation, which
// makes the id a safe key for caches AND for persisted chain snapshots: a
// snapshot addressed by this id can only ever be replayed against the graph
// it was built from.
func CanonicalID(g *Graph) string {
	// Counting-sort the normalized edges by their lower endpoint, then order
	// each vertex's (short) bucket by (upper endpoint, weight bits).
	type key struct {
		v int
		w uint64
	}
	start := make([]int, g.N+1)
	for _, e := range g.Edges {
		start[min(e.U, e.V)+1]++
	}
	for u := 0; u < g.N; u++ {
		start[u+1] += start[u]
	}
	next := slices.Clone(start[:g.N])
	ks := make([]key, len(g.Edges))
	for _, e := range g.Edges {
		u := min(e.U, e.V)
		ks[next[u]] = key{max(e.U, e.V), math.Float64bits(e.W)}
		next[u]++
	}
	// One buffer, one hash call: per-edge Writes cost more than the hashing.
	buf := make([]byte, 8+24*len(ks))
	binary.LittleEndian.PutUint64(buf, uint64(g.N))
	rec := buf[8:]
	for u := 0; u < g.N; u++ {
		bucket := ks[start[u]:start[u+1]]
		slices.SortFunc(bucket, func(a, b key) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			return cmp.Compare(a.w, b.w)
		})
		for _, k := range bucket {
			binary.LittleEndian.PutUint64(rec[0:], uint64(u))
			binary.LittleEndian.PutUint64(rec[8:], uint64(k.v))
			binary.LittleEndian.PutUint64(rec[16:], k.w)
			rec = rec[24:]
		}
	}
	sum := sha256.Sum256(buf)
	return "g" + hex.EncodeToString(sum[:16])
}
