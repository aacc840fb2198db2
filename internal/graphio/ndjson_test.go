package graphio

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The ndjson codec fronts the streaming solve endpoint, so its contract is
// locked from both directions: every malformed input class is rejected with
// a row-numbered error, and encode→decode recovers vectors bitwise
// (the property the service's bitwise-streaming guarantee rests on).

func TestVectorRowRoundTripBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vecs := [][]float64{
		{},
		{0, -0, 1, -1},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		{1e-7, 1e21, -2.5e-9, 3.141592653589793},
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	vecs = append(vecs, big)
	for vi, x := range vecs {
		row := AppendVectorRow(nil, x)
		got, err := ParseVectorRow(row)
		if err != nil {
			t.Fatalf("vec %d: %v (row %q)", vi, err, row)
		}
		if len(got) != len(x) {
			t.Fatalf("vec %d: length %d != %d", vi, len(got), len(x))
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("vec %d entry %d: %x != %x (row %s)", vi, i,
					math.Float64bits(got[i]), math.Float64bits(x[i]), row)
			}
		}
	}
}

func TestVectorScannerStream(t *testing.T) {
	in := "[1,2,3]\n\n  [4.5,-6,7e2]  \n[0,0,0]"
	sc := NewVectorScanner(strings.NewReader(in), 3, 0)
	var rows [][]float64
	for {
		x, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, x)
	}
	if len(rows) != 3 || sc.Rows() != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[1][2] != 700 {
		t.Fatalf("row 1 entry 2 = %g, want 700", rows[1][2])
	}
}

func TestVectorScannerRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not-json":        "[1,2\n",
		"nan-literal":     "[NaN,1]\n",
		"inf-literal":     "[Infinity]\n",
		"overflow":        "[1e999]\n",
		"string-entry":    "[1,\"x\",2]\n",
		"null-entry":      "[1,null]\n",
		"object-row":      "{\"b\":[1,2]}\n",
		"null-row":        "null\n",
		"trailing-data":   "[1,2][3,4]\n",
		"trailing-tokens": "[1,2] 77\n",
		"wrong-dim":       "[1,2,3,4]\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			sc := NewVectorScanner(strings.NewReader(in), 2, 0)
			if name == "wrong-dim" {
				// dim enforcement only; the row itself is valid JSON.
				if _, err := sc.Next(); err == nil {
					t.Fatal("wrong-length row accepted")
				}
				return
			}
			if x, err := sc.Next(); err == nil {
				t.Fatalf("malformed row accepted: %v", x)
			}
		})
	}
}

func TestVectorScannerGoodRowsThenBad(t *testing.T) {
	in := "[1,2]\n[3,4]\n[bad\n"
	sc := NewVectorScanner(strings.NewReader(in), 2, 0)
	for i := 0; i < 2; i++ {
		if _, err := sc.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	_, err := sc.Next()
	if err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("want row-numbered error for row 3, got %v", err)
	}
}

func TestVectorScannerRowByteLimit(t *testing.T) {
	long := "[" + strings.Repeat("1,", 5000) + "1]\n"
	sc := NewVectorScanner(strings.NewReader(long), 0, 64)
	_, err := sc.Next()
	if !errors.Is(err, ErrRowTooLarge) {
		t.Fatalf("want ErrRowTooLarge, got %v", err)
	}
	// A generous limit accepts the same row.
	sc = NewVectorScanner(strings.NewReader(long), 0, 1<<20)
	x, err := sc.Next()
	if err != nil || len(x) != 5001 {
		t.Fatalf("want 5001 entries, got %d (%v)", len(x), err)
	}
}
