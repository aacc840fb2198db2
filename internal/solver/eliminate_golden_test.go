package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/wd"
)

// elimDigest hashes everything an elimination hands to the solve path and
// to the next level: the op log with exact weight bits, the round
// boundaries, the owner-computes reverse index, the kept vertices and the
// reduced graph's edge list.
func elimDigest(el *Elimination) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(el.Ops)))
	for _, op := range el.Ops {
		u64(uint64(op.Kind))
		u64(uint64(op.V))
		u64(uint64(op.A))
		u64(uint64(op.B))
		u64(math.Float64bits(op.W1))
		u64(math.Float64bits(op.W2))
	}
	ints := func(xs []int) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(uint64(x))
		}
	}
	i32s := func(xs []int32) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(uint64(x))
		}
	}
	ints(el.RoundEnd)
	i32s(el.recvVert)
	i32s(el.recvItemEnd)
	i32s(el.recvOp)
	u64(uint64(len(el.recvCoef)))
	for _, c := range el.recvCoef {
		u64(math.Float64bits(c))
	}
	i32s(el.recvRoundEnd)
	ints(el.Keep)
	u64(uint64(len(el.Reduced.Edges)))
	for _, e := range el.Reduced.Edges {
		u64(uint64(e.U))
		u64(uint64(e.V))
		u64(math.Float64bits(e.W))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// weightedMultiCycle is a 3000-cycle with inexactly-summing weights, every
// 7th and 11th edge doubled (some with flipped endpoints), a few chords, a
// self-loop and a zero-weight edge: entry normalisation, splices landing on
// existing edges and several splices landing on one edge in a single round
// all decide weight bits here.
func weightedMultiCycle() *graph.Graph {
	rng := rand.New(rand.NewSource(99))
	n := 3000
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		edges = append(edges, graph.Edge{U: i, V: j, W: 0.1 + 9.9*rng.Float64()})
		if i%7 == 0 {
			edges = append(edges, graph.Edge{U: j, V: i, W: 0.1 + 9.9*rng.Float64()})
		}
		if i%11 == 0 {
			edges = append(edges, graph.Edge{U: i, V: j, W: 0.1 + 9.9*rng.Float64()})
		}
	}
	for k := 0; k < 40; k++ {
		edges = append(edges, graph.Edge{U: rng.Intn(n), V: rng.Intn(n), W: 0.1 + 9.9*rng.Float64()})
	}
	edges = append(edges, graph.Edge{U: 5, V: 5, W: 3}, graph.Edge{U: 8, V: 9, W: 0})
	return graph.FromEdges(n, edges)
}

// elimGolden pins the elimination of each testbed graph's level-0
// sparsifier (raw: of the graph itself). The digests were recorded at commit
// 6ce0b8f, where every round re-sorted and re-packed the whole working
// graph; the in-place elimination must reproduce them bit for bit.
var elimGolden = []struct {
	name   string
	g      func() *graph.Graph
	raw    bool
	digest string
}{
	{name: "grid2d:64x64", g: specGraph("grid2d:64x64"),
		digest: "ebb955fe41dfd05188e6abbdef1b99c18f985d300b8b19fce39720c0ac509deb"},
	{name: "pa:4000:4", g: specGraph("pa:4000:4"),
		digest: "07151a839cb3bffb1403e81842e6a8559172121587470ed96eedf49987087742"},
	{name: "regular:4000:8", g: specGraph("regular:4000:8"),
		digest: "f9f059b0062aebe7ca57e34013b8f949599734aa940c3fe38af57bc0d0aee8e8"},
	{name: "expw-grid64", g: func() *graph.Graph { return gen.WithExponentialWeights(gen.Grid2D(64, 64), 8, 8, 1) },
		digest: "05d27a164e6f4dd58f526a0401f3f8c57fea37b3ee250b42f3fd16fa0caa84d1"},
	{name: "path:4000", g: specGraph("path:4000"),
		digest: "9b3193d72e585422a990ca21e16fc1fb7fd81ec1a21d91d3b4a7e4699cbd6044"},
	{name: "weighted-multicycle", g: weightedMultiCycle, raw: true,
		digest: "08e5d7425a80f6daa59d41e7fd9c2eb1dcbd0ef33d7c0c0392fe48acadd3bb75"},
}

func specGraph(spec string) func() *graph.Graph {
	return func() *graph.Graph {
		g, err := gen.FromSpec(spec, 1)
		if err != nil {
			panic(err)
		}
		return g
	}
}

func TestEliminationGoldenDigests(t *testing.T) {
	for _, c := range elimGolden {
		for _, w := range []int{1, 2, 4} {
			g := c.g()
			rng := rand.New(rand.NewSource(1))
			if !c.raw {
				sp := DefaultSparsifyParams()
				sp.Workers = w
				g = IncrementalSparsify(mergeParallelW(w, g), sp, rng, nil).H
			}
			if d := elimDigest(GreedyEliminationW(w, g, rng, nil)); d != c.digest {
				t.Errorf("%s workers=%d: digest %s, recorded %s", c.name, w, d, c.digest)
			}
		}
	}
}

// TestEliminationWorkIsLinear: the recorder is charged, per round, the
// number of candidates scanned plus the adjacency entries read or written,
// so on a long path — 63 rounds, each touching a shrinking frontier —
// the total must stay within a constant of n+m. Rebuilding the working graph
// every round costs rounds·(n+m) and fails this by an order of magnitude.
func TestEliminationWorkIsLinear(t *testing.T) {
	g := gen.Path(200000)
	for _, w := range []int{1, 4} {
		var rec wd.Recorder
		el := GreedyEliminationW(w, g, rand.New(rand.NewSource(1)), &rec)
		if el.Rounds < 40 || len(el.Keep) != 0 {
			t.Fatalf("workers=%d: %d rounds, %d kept; want a long full elimination", w, el.Rounds, len(el.Keep))
		}
		if bound := int64(16 * (g.N + g.M())); rec.Work() > bound {
			t.Fatalf("workers=%d: %d rounds charged work %d > 16(n+m) = %d", w, el.Rounds, rec.Work(), bound)
		}
		t.Logf("workers=%d: %d rounds, work %d = %.1f(n+m)", w, el.Rounds, rec.Work(), float64(rec.Work())/float64(g.N+g.M()))
	}
}
