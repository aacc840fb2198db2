package graph

import (
	"math/rand"
	"testing"
)

// TestCanonicalIDGolden pins CanonicalID byte for byte: persisted snapshots
// and cluster placement are keyed by it, so a rewrite of the hashing must
// not move a single id. The ids were recorded at commit 6ce0b8f (reflective
// sort, one hash write per edge). Each graph is also hashed with its edge
// list shuffled and every other edge's endpoints flipped.
func TestCanonicalIDGolden(t *testing.T) {
	simple := []Edge{{0, 1, 1}, {1, 2, 2.5}, {2, 3, 0.1}, {3, 0, 7}, {1, 3, 1e-8}}
	multi := []Edge{{0, 1, 1}, {1, 0, 1}, {0, 1, 2}, {2, 2, 3}, {4, 3, 0}, {3, 4, 0.3}, {1, 0, 0.7}, {0, 1, 1}}
	rng := rand.New(rand.NewSource(5))
	var big []Edge
	for i := 0; i < 5000; i++ {
		big = append(big, Edge{rng.Intn(300), rng.Intn(300), float64(rng.Intn(4)) + rng.Float64()})
	}
	for _, c := range []struct {
		name  string
		n     int
		edges []Edge
		id    string
	}{
		{"simple", 4, simple, "g38c3d8be0a2b490fd86df1618128dfda"},
		{"multigraph", 6, multi, "gf86751b9ec44a6512e429061bdfbee12"},
		{"random-5000", 300, big, "g29b1614c38ccba7011a233f73755f708"},
		{"edgeless", 3, nil, "g35be322d094f9d154a8aba4733b8497f"},
	} {
		if id := CanonicalID(FromEdges(c.n, c.edges)); id != c.id {
			t.Errorf("%s: id %s, recorded %s", c.name, id, c.id)
		}
		mixed := append([]Edge(nil), c.edges...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		for i := 0; i < len(mixed); i += 2 {
			mixed[i].U, mixed[i].V = mixed[i].V, mixed[i].U
		}
		if id := CanonicalID(FromEdges(c.n, mixed)); id != c.id {
			t.Errorf("%s permuted and flipped: id %s, recorded %s", c.name, id, c.id)
		}
	}
}
