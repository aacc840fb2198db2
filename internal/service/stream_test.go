package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graphio"
	"parlap/internal/solver"
)

// streamRows posts body to /solve/stream and decodes every response row.
func streamRows(t *testing.T, url string, body io.Reader) (rows []streamDecoded, status int) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var row streamDecoded
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("stream row decode: %v", err)
		}
		rows = append(rows, row)
	}
	return rows, resp.StatusCode
}

type streamDecoded struct {
	Row        int       `json:"row"`
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Residual   float64   `json:"residual"`
	Error      string    `json:"error"`
	RowsEmit   int       `json:"rows_emitted"`
}

// TestSolveStream10kBitwise is the streaming acceptance lock: a 10k-row
// ndjson batch flows through /solve/stream in admission-bounded windows and
// every returned row is bitwise identical to an independent Solve of the
// same right-hand side (the streamed x took one extra JSON round trip, so
// the comparison also exercises the codec's exact float round-tripping).
func TestSolveStream10kBitwise(t *testing.T) {
	const (
		numRows = 10000
		eps     = 1e-8
	)
	g := gen.Grid2D(8, 8)
	ts := testServer(t, Config{StreamWindow: 64})
	var reg RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:8x8"}, &reg); code != 200 {
		t.Fatalf("register: status %d", code)
	}

	// The independent reference: a separately built solver over the same
	// graph (Workers does not affect the bits, which the equivalence suites
	// lock separately).
	ref, err := solver.NewWithOptions(g, solver.DefaultChainParams(), solver.Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	bs := make([][]float64, numRows)
	var body bytes.Buffer
	for r := range bs {
		b := make([]float64, g.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		bs[r] = b
		if err := graphio.WriteVectorRow(&body, b); err != nil {
			t.Fatal(err)
		}
	}

	url := fmt.Sprintf("%s/graphs/%s/solve/stream?eps=%g", ts.URL, reg.ID, eps)
	rows, status := streamRows(t, url, &body)
	if status != http.StatusOK {
		t.Fatalf("stream status %d", status)
	}
	if len(rows) != numRows {
		t.Fatalf("stream returned %d rows, want %d", len(rows), numRows)
	}
	for i, row := range rows {
		if row.Error != "" {
			t.Fatalf("row %d: in-band error %q", i, row.Error)
		}
		if row.Row != i {
			t.Fatalf("rows out of order: got %d at position %d", row.Row, i)
		}
		if !row.Converged {
			t.Fatalf("row %d did not converge (residual %.3e)", i, row.Residual)
		}
		want, _ := ref.Solve(bs[i], eps)
		if len(row.X) != len(want) {
			t.Fatalf("row %d: %d entries, want %d", i, len(row.X), len(want))
		}
		for j := range want {
			if math.Float64bits(row.X[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d entry %d: streamed %x != independent solve %x",
					i, j, math.Float64bits(row.X[j]), math.Float64bits(want[j]))
			}
		}
	}

	// The stream's RHS count lands in the per-graph serving stats.
	var st GraphStats
	if code := doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, reg.ID), nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.RHSServed != numRows {
		t.Fatalf("stats report %d rhs served, want %d", st.RHSServed, numRows)
	}
	if st.Solves < int64(numRows)/64 {
		t.Fatalf("stats report %d windows, want >= %d", st.Solves, numRows/64)
	}
}

// TestSolveStreamErrorKeepAliveReuse is the regression test for the
// full-duplex early-return panic: a stream request that fails before its
// body is read (unknown graph) must leave its keep-alive connection usable.
// Both requests go over ONE connection (a single-connection transport, the
// second request sent only after the first response is fully read); before
// the fix the second one died with "connection reset by peer" while the
// server logged "invalid concurrent Body.Read call".
func TestSolveStreamErrorKeepAliveReuse(t *testing.T) {
	ts := testServer(t, Config{StreamWindow: 4})
	var reg RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "path:10"}, &reg); code != 200 {
		t.Fatalf("register: status %d", code)
	}
	var dials atomic.Int32
	tr := &http.Transport{
		MaxConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	post := func(url, body string) int {
		t.Helper()
		resp, err := client.Post(url, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	good := fmt.Sprintf("%s/graphs/%s/solve/stream", ts.URL, reg.ID)
	for round := 0; round < 5; round++ {
		if code := post(ts.URL+"/graphs/nope/solve/stream", "[1]\n"); code != http.StatusNotFound {
			t.Fatalf("round %d unknown-graph: status %d, want 404", round, code)
		}
		if code := post(good+"?eps=banana", ""); code != http.StatusBadRequest {
			t.Fatalf("round %d bad-eps: status %d, want 400", round, code)
		}
		if code := post(good, "[1,2,3]\n"); code != http.StatusBadRequest {
			t.Fatalf("round %d wrong-length-row: status %d, want 400", round, code)
		}
		if code := post(good, "[1,0,0,0,0,0,0,0,0,-1]\n"); code != http.StatusOK {
			t.Fatalf("round %d good row: status %d, want 200", round, code)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d connections; the error paths must leave the keep-alive connection reusable", n)
	}
}

func TestSolveStreamErrors(t *testing.T) {
	ts := testServer(t, Config{StreamWindow: 4})
	var reg RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "path:10"}, &reg); code != 200 {
		t.Fatalf("register: status %d", code)
	}
	url := fmt.Sprintf("%s/graphs/%s/solve/stream", ts.URL, reg.ID)

	t.Run("unknown-graph", func(t *testing.T) {
		_, status := streamRows(t, ts.URL+"/graphs/nope/solve/stream", strings.NewReader("[1]\n"))
		if status != http.StatusNotFound {
			t.Fatalf("status %d, want 404", status)
		}
	})
	t.Run("bad-eps", func(t *testing.T) {
		resp, err := http.Post(url+"?eps=banana", "application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("wrong-length-row", func(t *testing.T) {
		rows, status := streamRows(t, url, strings.NewReader("[1,2,3]\n"))
		// Fails before any row is emitted: a clean HTTP error.
		if status != http.StatusBadRequest {
			t.Fatalf("status %d (rows %v), want 400", status, rows)
		}
	})
	t.Run("malformed-after-window", func(t *testing.T) {
		// 4 good rows fill a window and stream back, THEN the bad row hits:
		// the status is already 200, so the error arrives in-band.
		var body bytes.Buffer
		for i := 0; i < 4; i++ {
			body.WriteString(`[1,0,0,0,0,0,0,0,0,-1]` + "\n")
		}
		body.WriteString("[NaN]\n")
		rows, status := streamRows(t, url, &body)
		if status != http.StatusOK {
			t.Fatalf("status %d, want 200 (committed stream)", status)
		}
		if len(rows) != 5 {
			t.Fatalf("got %d rows, want 4 solutions + 1 error row", len(rows))
		}
		last := rows[4]
		if last.Error == "" || last.RowsEmit != 4 {
			t.Fatalf("want in-band error row after 4 emitted, got %+v", last)
		}
		for _, row := range rows[:4] {
			if row.Error != "" || !row.Converged {
				t.Fatalf("good row failed: %+v", row)
			}
		}
	})
	t.Run("empty-stream", func(t *testing.T) {
		rows, status := streamRows(t, url, strings.NewReader("\n\n"))
		if status != http.StatusOK || len(rows) != 0 {
			t.Fatalf("empty stream: status %d rows %d, want 200/0", status, len(rows))
		}
	})
}
