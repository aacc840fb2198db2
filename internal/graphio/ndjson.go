package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// The ndjson vector stream: one JSON array of finite numbers per line, the
// wire format of the solver service's streaming batch endpoint, on the
// float-vector codec of vector.go. ParseVectorRow(AppendVectorRow(nil, x))
// returns x bitwise — the property the streaming tests pin (streamed
// solutions must equal independent solves bit for bit after one
// encode/decode round trip on each side).

// DefaultMaxRowBytes bounds one ndjson row (16 MiB ≈ a 700k-entry vector);
// oversized rows fail with an explicit error instead of a silent truncation.
const DefaultMaxRowBytes = 16 << 20

// ErrRowTooLarge reports an ndjson row exceeding the scanner's byte limit.
var ErrRowTooLarge = fmt.Errorf("graphio: ndjson row exceeds the row byte limit")

// VectorScanner reads ndjson vector rows ("[1.5,2,-3e4]\n" …) from a
// stream. Blank lines are skipped; every other line must be exactly one
// JSON array of finite numbers (NaN and ±Inf are not valid JSON and are
// rejected, as is any trailing data after the array on the same line).
type VectorScanner struct {
	r *bufio.Reader
	// Dim, when > 0, requires every row to have exactly Dim entries.
	dim     int
	maxRow  int
	rows    int
	partial []byte
}

// NewVectorScanner wraps r. dim > 0 enforces a fixed row length (the
// graph's vertex count); maxRowBytes <= 0 means DefaultMaxRowBytes.
func NewVectorScanner(r io.Reader, dim, maxRowBytes int) *VectorScanner {
	if maxRowBytes <= 0 {
		maxRowBytes = DefaultMaxRowBytes
	}
	return &VectorScanner{r: bufio.NewReaderSize(r, 64<<10), dim: dim, maxRow: maxRowBytes}
}

// Rows returns the number of vector rows decoded so far.
func (s *VectorScanner) Rows() int { return s.rows }

// Next returns the next vector row, or io.EOF after the last one. Any
// malformed row stops the stream with a descriptive error (the row number
// is 1-based over non-blank rows).
func (s *VectorScanner) Next() ([]float64, error) {
	for {
		line, err := s.readLine()
		if err != nil {
			return nil, err
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		x, perr := ParseVectorRow(line)
		if perr != nil {
			return nil, fmt.Errorf("graphio: ndjson row %d: %w", s.rows+1, perr)
		}
		if s.dim > 0 && len(x) != s.dim {
			return nil, fmt.Errorf("graphio: ndjson row %d has %d entries, want %d", s.rows+1, len(x), s.dim)
		}
		s.rows++
		return x, nil
	}
}

// readLine reads one \n-terminated line (or the final unterminated line),
// enforcing the row byte limit.
func (s *VectorScanner) readLine() ([]byte, error) {
	s.partial = s.partial[:0]
	for {
		chunk, err := s.r.ReadSlice('\n')
		s.partial = append(s.partial, chunk...)
		if len(s.partial) > s.maxRow {
			return nil, fmt.Errorf("%w (%d bytes > %d)", ErrRowTooLarge, len(s.partial), s.maxRow)
		}
		switch err {
		case nil:
			return s.partial, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(s.partial) == 0 {
				return nil, io.EOF
			}
			return s.partial, nil
		default:
			return nil, err
		}
	}
}

// ParseVectorRow decodes one ndjson row: exactly one JSON array of finite
// numbers, nothing after it. NaN/Inf (not valid JSON), out-of-range
// literals like 1e999, null and other non-numeric elements, and trailing
// data are all rejected.
func ParseVectorRow(line []byte) ([]float64, error) {
	r := NewJSONReader(line)
	x, err := r.Vector(nil)
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("bad vector row: %w", err)
	}
	return x, nil
}

// WriteVectorRow writes x as one ndjson line (array + newline).
func WriteVectorRow(w io.Writer, x []float64) error {
	buf := AppendVectorRow(make([]byte, 0, 16*len(x)+2), x)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}
