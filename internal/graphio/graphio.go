// Package graphio reads and writes the graph formats used by the command-
// line tools — a whitespace edge-list format and symmetric Matrix Market
// coordinate files (the format SDD solver suites conventionally exchange) —
// and holds the float-vector wire codec that every vector the solver
// service exchanges goes through (vector.go).
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// ReadEdgeList parses a graph from lines of the form "u v [w]" (0-based
// vertex ids, optional float weight defaulting to 1). Lines starting with
// '#' or '%' are comments. An optional first line "n m" presizes the graph;
// otherwise n is inferred as max id + 1.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var edges []graph.Edge
	n := 0
	first := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if first && len(fields) == 2 {
			// Could be a header "n m" — treat as a header only if parsing
			// the rest as an edge would be ambiguous; we adopt the
			// convention that a 2-field first line IS the header.
			a, err1 := strconv.Atoi(fields[0])
			b, err2 := strconv.Atoi(fields[1])
			if err1 == nil && err2 == nil && a >= 0 && b >= 0 {
				n = a
				_ = b
				first = false
				continue
			}
		}
		first = false
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex %q", lineNo, fields[1])
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative vertex id", lineNo)
		}
		if u >= n {
			n = u + 1
		}
		if v >= n {
			n = v + 1
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := graph.FromEdges(n, edges)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteEdgeList writes "n m" followed by one "u v w" line per edge.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.N, g.M())
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W)
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a symmetric real coordinate Matrix Market file
// into a sparse matrix. Only the lower (or upper) triangle need be stored;
// the symmetric counterpart entries are mirrored.
func ReadMatrixMarket(r io.Reader) (*matrix.Sparse, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graphio: empty MatrixMarket input")
	}
	header := strings.ToLower(strings.TrimSpace(sc.Text()))
	if !strings.HasPrefix(header, "%%matrixmarket") {
		return nil, fmt.Errorf("graphio: missing MatrixMarket banner")
	}
	if !strings.Contains(header, "coordinate") {
		return nil, fmt.Errorf("graphio: only coordinate format supported")
	}
	symmetric := strings.Contains(header, "symmetric")
	var n, m, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		if _, err := fmt.Sscan(line, &n, &m, &nnz); err != nil {
			return nil, fmt.Errorf("graphio: bad size line %q: %v", line, err)
		}
		break
	}
	if n != m {
		return nil, fmt.Errorf("graphio: matrix is %dx%d, want square", n, m)
	}
	var rows, cols []int
	var vals []float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		var i, j int
		var v float64
		if _, err := fmt.Sscan(line, &i, &j, &v); err != nil {
			return nil, fmt.Errorf("graphio: bad entry %q: %v", line, err)
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("graphio: entry (%d,%d) out of range", i, j)
		}
		rows = append(rows, i-1)
		cols = append(cols, j-1)
		vals = append(vals, v)
		if symmetric && i != j {
			rows = append(rows, j-1)
			cols = append(cols, i-1)
			vals = append(vals, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return matrix.NewSparseFromTriplets(n, rows, cols, vals)
}

// WriteMatrixMarket writes a sparse symmetric matrix in coordinate format,
// storing the lower triangle (including the diagonal).
func WriteMatrixMarket(w io.Writer, a *matrix.Sparse) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real symmetric")
	nnz := 0
	for r := 0; r < a.N; r++ {
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			if int(a.Col[i]) <= r {
				nnz++
			}
		}
	}
	fmt.Fprintf(bw, "%d %d %d\n", a.N, a.N, nnz)
	for r := 0; r < a.N; r++ {
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			if int(a.Col[i]) <= r {
				fmt.Fprintf(bw, "%d %d %.17g\n", r+1, int(a.Col[i])+1, a.Val[i])
			}
		}
	}
	return bw.Flush()
}
