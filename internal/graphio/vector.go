package graphio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The float-vector codec: the one place a []float64 becomes JSON on the
// wire and back, for every vector the service exchanges — solve request and
// reply bodies, ndjson stream rows. The encoder writes exactly the bytes
// encoding/json writes for a []float64 (strconv's shortest round-trip
// floats), so clients see no change. The decoder is one pass over the bytes
// with no reflection and no token buffer: it checks the JSON number grammar
// while it accumulates the decimal mantissa, and converts mantissa × 10^exp
// with the Eisel–Lemire algorithm (atof.go), deferring to
// strconv.ParseFloat for the inputs that algorithm declines (more than 19
// significant digits, subnormals, overflow, exact halfway cases). Decoding
// AppendVectorRow's output recovers every entry bitwise.
//
// The decoder rejects non-finite entries: NaN and ±Inf are not JSON
// numbers, a literal beyond the float64 range (1e999) is an error rather
// than an infinity, and null is not a vector entry.

// maxPresize caps how many entries Vector reserves before it has parsed
// any: the count comes from unvalidated input (a body of bare commas would
// otherwise cost 8 bytes per comma before failing on its second entry).
// Longer vectors grow by append.
const maxPresize = 1 << 16

// JSONReader reads JSON values from an in-memory document, left to right.
// It knows the shapes vector payloads use — objects with string keys,
// arrays of numbers, numbers, null — so a caller decodes a document by
// driving it field by field. Errors carry the byte offset they occur at.
type JSONReader struct {
	data []byte
	pos  int
	pow  *pow10Table
}

// NewJSONReader returns a reader positioned at the start of data.
func NewJSONReader(data []byte) *JSONReader {
	return &JSONReader{data: data, pow: powersOfTen()}
}

func (r *JSONReader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
}

// Peek skips whitespace and returns the next byte without consuming it; 0
// at the end of the document (a NUL byte in it also reads as 0, and is
// invalid wherever it appears).
func (r *JSONReader) Peek() byte {
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// Expect consumes the byte c (after whitespace) or fails.
func (r *JSONReader) Expect(c byte) error {
	if r.Peek() != c {
		return r.errorf("expected %q, found %s", c, r.next())
	}
	r.pos++
	return nil
}

// next describes the next byte for an error message.
func (r *JSONReader) next() string {
	if r.Peek(); r.pos >= len(r.data) {
		return "end of input"
	}
	return strconv.QuoteRune(rune(r.data[r.pos]))
}

// Null consumes a null literal if one comes next and reports whether it did.
func (r *JSONReader) Null() bool {
	if r.Peek() == 'n' && bytes.HasPrefix(r.data[r.pos:], []byte("null")) {
		r.pos += 4
		return true
	}
	return false
}

// End fails unless only whitespace remains.
func (r *JSONReader) End() error {
	if r.Peek(); r.pos < len(r.data) {
		return r.errorf("unexpected %s after the top-level value", r.next())
	}
	return nil
}

// Key reads an object key and the colon after it, decoding escapes.
func (r *JSONReader) Key() (string, error) {
	if err := r.Expect('"'); err != nil {
		return "", err
	}
	start, escaped := r.pos, false
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; {
		case c == '"':
			raw := r.data[start:r.pos]
			r.pos++
			if !escaped {
				return string(raw), r.Expect(':')
			}
			key, err := unescape(raw)
			if err != nil {
				return "", r.errorf("%v", err)
			}
			return key, r.Expect(':')
		case c == '\\':
			escaped = true
			r.pos += 2
		case c < 0x20:
			return "", r.errorf("control character %#x in string", c)
		default:
			r.pos++
		}
	}
	return "", r.errorf("unterminated string")
}

// Float reads one JSON number as a finite float64.
func (r *JSONReader) Float() (float64, error) {
	r.Peek()
	return r.number()
}

// Vector reads a JSON array of numbers into dst[:0]. Up to maxPresize
// entries dst grows at most once (the entries are counted before they are
// parsed). An empty array yields a non-nil empty vector.
func (r *JSONReader) Vector(dst []float64) ([]float64, error) {
	if err := r.Expect('['); err != nil {
		return dst, err
	}
	dst = dst[:0]
	if r.Peek() == ']' {
		r.pos++
		if dst == nil {
			dst = []float64{}
		}
		return dst, nil
	}
	if want := min(r.entryBound(), maxPresize); cap(dst) < want {
		dst = make([]float64, 0, want)
	}
	for {
		v, err := r.Float()
		if err != nil {
			return dst, fmt.Errorf("vector entry %d: %w", len(dst), err)
		}
		dst = append(dst, v)
		// The canonical form has no whitespace: test the separator before
		// paying for Peek.
		if r.pos < len(r.data) && r.data[r.pos] == ',' {
			r.pos++
			continue
		}
		switch r.Peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return dst, nil
		default:
			return dst, r.errorf("expected ',' or ']' after vector entry %d, found %s", len(dst)-1, r.next())
		}
	}
}

// entryBound bounds the entries of the array the reader is inside: one
// more than the commas before the next ']' (or the end of the document).
func (r *JSONReader) entryBound() int {
	rest := r.data[r.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// number parses the JSON number at the reader's position. The grammar is
// RFC 8259's, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is
// stricter than strconv.ParseFloat's (that would take "+1", ".5", "0x1p3",
// "Inf", "1_0"); it is checked in the same pass that accumulates up to 19
// significant digits into the mantissa.
func (r *JSONReader) number() (float64, error) {
	data, i := r.data, r.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	// man holds the first nd ≤ 19 significant digits; the value is
	// man × 10^exp10 unless digits beyond those were dropped (truncated).
	var man uint64
	nd, exp10, truncated := 0, 0, false
	switch {
	case i >= len(data):
		return r.notNumber()
	case data[i] == '0':
		i++
	case data[i] >= '1' && data[i] <= '9':
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if nd < 19 {
				man = man*10 + uint64(d)
				nd++
			} else {
				truncated = true
				exp10++
			}
		}
	default:
		return r.notNumber()
	}
	if i < len(data) && data[i] == '.' {
		i++
		start := i
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			switch {
			case man == 0 && d == 0: // a leading zero: no significant digit
				exp10--
			case nd < 19:
				man = man*10 + uint64(d)
				nd++
				exp10--
			default:
				truncated = true
			}
		}
		if i == start {
			return r.notNumber()
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			if e < 1e6 { // far outside the float64 range either way
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == start {
			return r.notNumber()
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	tok := data[r.pos:i]
	if !truncated {
		if v, ok := r.pow.eiselLemire(man, exp10, neg); ok {
			r.pos = i
			return v, nil
		}
	}
	// The conversion does not retain its argument, so a short literal's
	// string stays on the stack.
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		// The grammar was checked above, so the only failure left is range.
		return 0, r.errorf("number %s is out of the float64 range", tok)
	}
	r.pos = i
	return v, nil
}

func (r *JSONReader) notNumber() (float64, error) {
	return 0, r.errorf("expected a number, found %s", r.next())
}

// unescape decodes the escapes of a JSON string body. Unpaired surrogate
// halves become U+FFFD, as in encoding/json.
func unescape(raw []byte) (string, error) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			i++
			continue
		}
		if i+1 >= len(raw) {
			return "", errors.New("unterminated escape")
		}
		e := raw[i+1]
		i += 2
		switch e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r1, ok := hex4(raw[i:])
			if !ok {
				return "", errors.New(`bad \u escape`)
			}
			i += 4
			if utf16IsHigh(r1) && i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
				if r2, ok := hex4(raw[i+2:]); ok && r2 >= 0xDC00 && r2 < 0xE000 {
					out = utf8.AppendRune(out, (r1-0xD800)<<10|(r2-0xDC00)+0x10000)
					i += 6
					continue
				}
			}
			if r1 >= 0xD800 && r1 < 0xE000 {
				r1 = utf8.RuneError
			}
			out = utf8.AppendRune(out, r1)
		default:
			return "", fmt.Errorf("bad escape \\%c", e)
		}
	}
	return string(out), nil
}

func utf16IsHigh(r rune) bool { return r >= 0xD800 && r < 0xDC00 }

func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// AppendVectorRow appends x as one JSON array (no trailing newline) to dst,
// byte for byte what encoding/json writes for a finite []float64 (a
// non-finite entry is written as null; see AppendFloat).
func AppendVectorRow(dst []byte, x []float64) []byte {
	dst = append(dst, '[')
	for i, v := range x {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendFloat(dst, v)
	}
	return append(dst, ']')
}

// AppendFloat appends v as encoding/json writes a float64: strconv's
// shortest round-trip form, in e-notation outside [1e-6, 1e21) with the
// exponent's leading zero dropped. NaN and ±Inf, which JSON cannot
// represent (encoding/json refuses them), are written as null.
func AppendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
