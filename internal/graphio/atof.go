package graphio

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// pow10Table holds, for q in [pow10Min, pow10Max], the 128-bit mantissa of
// 10^q rounded down and normalised so bit 127 is set (hi, lo words).
type pow10Table [pow10Max - pow10Min + 1][2]uint64

const (
	pow10Min = -348
	pow10Max = 347
)

// powersOfTen builds the table once, exactly, with big integers.
var powersOfTen = sync.OnceValue(func() *pow10Table {
	var t pow10Table
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for q := pow10Min; q <= pow10Max; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(abs(q))), nil)
		if q < 0 {
			// floor(2^(127+len(p)) / p) lies strictly between 2^127 and
			// 2^128: 10^|q| is not a power of two.
			num := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
			p.Quo(num, p)
		} else if n := p.BitLen(); n > 128 {
			p.Rsh(p, uint(n-128))
		} else {
			p.Lsh(p, uint(128-n))
		}
		t[q-pow10Min][1] = new(big.Int).And(p, mask).Uint64()
		t[q-pow10Min][0] = p.Rsh(p, 64).Uint64()
	}
	return &t
})

func abs(q int) int {
	if q < 0 {
		return -q
	}
	return q
}

// eiselLemire converts man × 10^exp10 to the nearest float64 (ties to
// even) with one or two 64×128-bit multiplications (D. Lemire, "Number
// parsing at a gigabyte per second", 2021; the same algorithm strconv
// runs). ok is false when the truncated table value leaves the rounding
// undecided or the result is subnormal or infinite; the caller then takes
// the exact slow path.
func (t *pow10Table) eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &t[exp10-pow10Min]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// floor(exp10 · log2(10)) + 64 + bias − clz: the binary exponent of
	// the product's top bit.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The discarded low bits might carry into the kept ones: widen the
		// product with the table's second word.
		hi2, lo2 := bits.Mul64(man, pow[1])
		mergedLo := lo + hi2
		if mergedLo < lo {
			hi++
		}
		if hi&0x1FF == 0x1FF && mergedLo+1 == 0 && lo2+man < man {
			return 0, false
		}
		lo = mergedLo
	}
	top := hi >> 63
	mant := hi >> (top + 9) // 54 bits: the 53 kept plus one rounding bit
	exp2 -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // exactly halfway between two floats: undecided
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero or infinite
	}
	return math.Float64frombits(sign | exp2<<52 | mant&(1<<52-1)), true
}
