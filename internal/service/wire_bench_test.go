package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graphio"
)

// BenchmarkSolveHTTP is one single-RHS solve request on path:20000 (an
// exact one-level chain, so the wrapper — body decode, reply encode,
// HTTP — is most of it) over a keep-alive loopback connection: the cost the
// serving tier adds on top of Solver.Solve.
func BenchmarkSolveHTTP(b *testing.B) {
	srv := New(Config{DefaultEps: 1e-6})
	g, err := gen.FromSpec("path:20000", 1)
	if err != nil {
		b.Fatal(err)
	}
	e, _, err := srv.Register(context.Background(), g, "bench")
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rhs := meanFreeRHS(g.N, 1)
	body := append(graphio.AppendVectorRow([]byte(`{"b":`), rhs), '}')
	url := ts.URL + "/graphs/" + e.id + "/solve"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		_, err = io.Copy(&buf, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v", resp.StatusCode, err)
		}
	}
}
