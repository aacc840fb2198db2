package graphio

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// The float-vector codec's walls: its number scan hands strconv.ParseFloat
// exactly the literal (same bits), its JSON output is byte-identical to
// encoding/json's, and its accept/reject decisions match encoding/json's on
// arbitrary input (FuzzParseVectorRow).

// parseOne runs the JSON reader's number path on one literal.
func parseOne(s string) (float64, error) {
	r := NewJSONReader([]byte(s))
	v, err := r.Float()
	if err == nil {
		err = r.End()
	}
	return v, err
}

func TestNumberMatchesStrconv(t *testing.T) {
	fixed := []string{
		"0", "-0", "0.0", "-0.0e5", "0e999", "1", "-1", "10", "1e23", "8.41e21",
		"9007199254740993", "9007199254740992.5", "4503599627370497.5",
		"1.7976931348623157e308", "1.7976931348623158e308",
		"2.2250738585072014e-308", "2.2250738585072011e-308", "4.9e-324",
		"5e-324", "2e-324", "1e-400", "123456789012345678901234567890",
		"0.000000000000000000000000000000000000000000001",
		"0.1000000000000000055511151231257827021181583404541015625",
		"1e-7", "1E+7", "3.141592653589793", "7.3177701707893310e15",
		"1448997445238699", "2.0000000000000004", "100000000000000016777215",
	}
	for _, s := range fixed {
		want, werr := strconv.ParseFloat(s, 64)
		got, gerr := parseOne(s)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s: error %v, strconv %v", s, gerr, werr)
		}
		if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %x, strconv %x", s, math.Float64bits(got), math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(7))
	formats := []struct {
		fmt  byte
		prec int
	}{{'f', -1}, {'e', -1}, {'e', 16}, {'e', 14}, {'e', 22}, {'g', 19}, {'f', 30}}
	for i := 0; i < 200000; i++ {
		var v float64
		switch i % 3 {
		case 0: // any finite bit pattern
			v = math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		case 1: // solver-like magnitudes
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-12))
		default: // short decimals: exact and halfway-prone inputs
			v = float64(rng.Int63n(1<<60)) / math.Pow(10, float64(rng.Intn(30)))
		}
		f := formats[rng.Intn(len(formats))]
		s := strconv.FormatFloat(v, f.fmt, f.prec, 64)
		want, werr := strconv.ParseFloat(s, 64)
		got, gerr := parseOne(s)
		if (werr != nil) != (gerr != nil) || (werr == nil && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("%s: got %v (%v), strconv %v (%v)", s, got, gerr, want, werr)
		}
	}
}

func TestNumberGrammar(t *testing.T) {
	for _, s := range []string{
		"", "-", "+1", ".5", "01", "-01", "1.", "1.e5", "1e", "1e+", "0x10",
		"NaN", "Infinity", "-Infinity", "1_0", "--1", "1e999", "-1e400",
		"1.5.2", "1e5e5", "true", `"1"`, "null",
	} {
		if v, err := parseOne(s); err == nil {
			t.Errorf("%q parsed as %v; not a finite JSON number", s, v)
		}
	}
}

func TestAppendVectorRowMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, -2.5e-9, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 5000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		x = append(x, v, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	want, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendVectorRow(nil, x); !bytes.Equal(got, want) {
		t.Fatalf("AppendVectorRow differs from encoding/json:\n%s\n%s", got, want)
	}
}

// TestAppendFloatNonFinite: a value JSON cannot carry goes out as null
// instead of making the whole document unwritable.
func TestAppendFloatNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendFloat(nil, v)); got != "null" {
			t.Fatalf("AppendFloat(%v) = %s, want null", v, got)
		}
	}
}

// TestVectorPresizeBounded: the entry count Vector reserves for comes from
// input it has not validated yet, so a row of bare commas must fail without
// reserving memory in proportion to them.
func TestVectorPresizeBounded(t *testing.T) {
	row := append([]byte("[1"), bytes.Repeat([]byte{','}, 4<<20)...)
	row = append(row, ']')
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ParseVectorRow(row)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("row of bare commas accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("rejecting %d commas allocated %d bytes", 4<<20, got)
	}
}

// TestParseVectorRowAllocs: a row costs its vector and nothing that grows
// with it — no token buffers, no reflection scratch, no regrowth.
func TestParseVectorRowAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)*0.1234567890123 - 17
		}
		row := AppendVectorRow(nil, x)
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseVectorRow(row); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(20000)
	if large != small || large > 2 {
		t.Fatalf("ParseVectorRow allocations: %v at 100 entries, %v at 20000 (want equal, <= 2)", small, large)
	}
}

// BenchmarkParseVectorRow decodes one 20 000-entry row of full-precision
// floats, the shape of a serve_http request body.
func BenchmarkParseVectorRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	row := AppendVectorRow(nil, x)
	b.SetBytes(int64(len(row)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseVectorRow(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendVectorRow encodes one 20 000-entry solution vector, the
// reply body of a serve_http request.
func BenchmarkAppendVectorRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64() * 100
	}
	buf := AppendVectorRow(nil, x)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendVectorRow(buf[:0], x)
	}
}

// FuzzParseVectorRow is the differential wall: on any input the codec
// accepts exactly what encoding/json accepts as an array of numbers (no
// null entries), with bitwise-equal values, and re-encoding what it parsed
// round-trips.
func FuzzParseVectorRow(f *testing.F) {
	for _, s := range []string{
		"[]", "[1,2,3]", " [ -0 , 1e-7 ,2.5E+3 ] ", "[1e999]", "[NaN]", "[1,]",
		"[01]", "[1,null]", "null", "[1][2]", `[1,"2"]`, "[1.7976931348623157e308]",
		"[0.1000000000000000055511151231257827021181583404541015625]",
		"[123456789012345678901234567890,4.9e-324]", "[\t1\n,\r2]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseVectorRow(data)
		var ref []*float64
		refErr := json.Unmarshal(data, &ref)
		refOK := refErr == nil && ref != nil
		for _, p := range ref {
			refOK = refOK && p != nil
		}
		if (err == nil) != refOK {
			t.Fatalf("%q: codec err %v, encoding/json err %v (ref %v)", data, err, refErr, ref)
		}
		if err != nil {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%q: %d entries, encoding/json %d", data, len(got), len(ref))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(*ref[i]) {
				t.Fatalf("%q entry %d: %v, encoding/json %v", data, i, got[i], *ref[i])
			}
		}
		again, err := ParseVectorRow(AppendVectorRow(nil, got))
		if err != nil || len(again) != len(got) {
			t.Fatalf("%q: re-encoded row does not parse: %v", data, err)
		}
		for i := range got {
			if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%q entry %d: round trip %v != %v", data, i, again[i], got[i])
			}
		}
	})
}
