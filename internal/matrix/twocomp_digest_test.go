package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/par"
)

// TestTwoComponentDigestProject pins the exact output bits of
// ProjectOutConstantMaskedBlockIdxW at widths 1, 2 and 4 and Workers 1 and
// 4 on n = 2·ReduceGrain + 900 vertices, so every partition below has
// components crossing chunk boundaries of the component-sorted order: two
// contiguous components split inside the first chunk (a two-component
// union's layout) and five components interleaved at random (the order is
// a gather). Each lane carries a different offset on each component. A
// change to how the per-component sums are folded — piece boundaries,
// combining order — or how the means are subtracted moves these digests.
func TestTwoComponentDigestProject(t *testing.T) {
	n := 2*par.ReduceGrain + 900
	rng := rand.New(rand.NewSource(29))
	union := make([]int, n)
	for i := 1500; i < n; i++ {
		union[i] = 1
	}
	for _, tc := range []struct {
		name    string
		comp    []int
		numComp int
		want    map[int]string // width -> digest of the projected block
	}{
		{"union", union, 2, map[int]string{
			1: "9f7eb8a8c6330cd9", 2: "c0c88a53f46581c8", 4: "81840058463d1e67"}},
		{"interleaved", randomPartition(rng, n, 5), 5, map[int]string{
			1: "ec0de77adc1b350b", 2: "09377fa9fd16c562", 4: "80e29d078aa237ea"}},
	} {
		ci := NewCompIndexW(0, tc.comp, tc.numComp)
		for _, k := range []int{1, 2, 4} {
			xs := randCols(n, k, int64(40+k))
			for c, col := range xs {
				for i := range col {
					col[i] += 1.5*float64(tc.comp[i]+1) + 0.25*float64(c)
				}
			}
			for _, w := range []int{1, 4} {
				x := blockFromCols(xs)
				ProjectOutConstantMaskedBlockIdxW(w, x, ci)
				if got := blockDigest(x.Data()); got != tc.want[k] {
					t.Errorf("%s k=%d workers=%d: digest %s, want %s", tc.name, k, w, got, tc.want[k])
				}
			}
		}
	}
}

// blockDigest is a short content hash of x's exact float64 bits.
func blockDigest(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
