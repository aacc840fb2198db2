package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"parlap/internal/graphio"
	"parlap/internal/obs"
	"parlap/internal/solver"
)

// The solve endpoints' codec walls: replies are byte-identical to what
// encoding/json wrote for the same documents, requests decode exactly as
// encoding/json decoded them (FuzzDecodeSolveRequest), and unvalidated
// lengths do not size allocations.

func randomReply(rng *rand.Rand, k, n int) ([][]float64, []solver.SolveStats) {
	xs := make([][]float64, k)
	sts := make([]solver.SolveStats, k)
	for c := range xs {
		xs[c] = make([]float64, n)
		for i := range xs[c] {
			xs[c][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		sts[c] = solver.SolveStats{Iterations: rng.Intn(500), Converged: rng.Intn(2) == 0, Residual: rng.ExpFloat64() * 1e-9}
	}
	return xs, sts
}

func TestSolveReplyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := obs.SolveTrace{TotalNS: 1234567, QueueNS: 89, PrecondNS: 5e5, Levels: 2, DecodeNS: 31337, EncodeNS: 4242}
	tr.ChebNS[0], tr.FwdNS[1] = 777, 1
	for _, k := range []int{1, 3} {
		for _, withTimings := range []bool{false, true} {
			xs, sts := randomReply(rng, k, 200)
			wire := make([]SolveStatsJSON, k)
			for i, st := range sts {
				wire[i] = SolveStatsJSON{Iterations: st.Iterations, Converged: st.Converged, Residual: st.Residual}
			}
			ref := SolveResponse{Xs: xs, BatchStats: wire}
			if k == 1 {
				ref = SolveResponse{X: xs[0], Stats: &wire[0]}
			}
			got := appendSolveJSON(nil, xs, sts, k == 1)
			if withTimings {
				ref.Timings = solveTimingsJSON(&tr)
				got = append(append(got, `,"timings":`...), timingsJSON(&tr)...)
			}
			got = append(got, "}\n"...)
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("k=%d timings=%v: reply differs from encoding/json\n got %.300s\nwant %.300s", k, withTimings, got, want.Bytes())
			}
		}
	}
	// A broken-down solve's non-finite residual, which encoding/json cannot
	// write at all, goes out as null.
	got := appendStatsJSON(nil, solver.SolveStats{Iterations: 3, Residual: math.NaN()})
	if string(got) != `{"iterations":3,"converged":false,"residual":null}` {
		t.Fatalf("non-finite residual: %s", got)
	}
}

// refSolveRequest is what encoding/json makes of a body, with vector
// entries as pointers so a null entry (which it would store as 0) shows.
type refSolveRequest struct {
	B     []*float64   `json:"b,omitempty"`
	Batch [][]*float64 `json:"batch,omitempty"`
	Eps   float64      `json:"eps,omitempty"`
}

// refDecode decodes like the handler's old path — a json.Decoder with
// DisallowUnknownFields — and additionally requires the rest of the body to
// be whitespace and every vector entry to be a number.
func refDecode(data []byte) (SolveRequest, error) {
	var ref refSolveRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ref); err != nil {
		return SolveRequest{}, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return SolveRequest{}, fmt.Errorf("trailing data %q", rest)
	}
	vec := func(ps []*float64) ([]float64, error) {
		if ps == nil {
			return nil, nil
		}
		x := make([]float64, len(ps))
		for i, p := range ps {
			if p == nil {
				return nil, fmt.Errorf("null entry %d", i)
			}
			x[i] = *p
		}
		return x, nil
	}
	req := SolveRequest{Eps: ref.Eps}
	var err error
	if req.B, err = vec(ref.B); err != nil {
		return req, err
	}
	if ref.Batch != nil {
		req.Batch = make([][]float64, len(ref.Batch))
		for i, row := range ref.Batch {
			if req.Batch[i], err = vec(row); err != nil {
				return req, err
			}
		}
	}
	return req, nil
}

func sameVector(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRequest(a, b SolveRequest) bool {
	if !sameVector(a.B, b.B) || (a.Batch == nil) != (b.Batch == nil) || len(a.Batch) != len(b.Batch) ||
		math.Float64bits(a.Eps) != math.Float64bits(b.Eps) {
		return false
	}
	for i := range a.Batch {
		if !sameVector(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return true
}

var solveRequestSeeds = []string{
	`{"b":[1,-1]}`, `{"b":[1,-1],"eps":1e-7}`, `{"batch":[[1,-1],[0.5,-0.5]]}`,
	` { "B" : [ 1 , 2 ] , "EPS" : 0.5 } `, `{"b":[]}`, `{"batch":[]}`, `{"batch":[null,[1]]}`,
	`{"b":null}`, `null`, `{}`, `{"b":[1],"b":[2,3]}`, `{"eps":1e-3,"eps":null}`,
	`{"b":[1],"x":2}`, `{"b":[1,null]}`, `{"b":[1],}`, `{"b":[1]} x`, `{"b":[1e999]}`,
	`{"\u0062":[4]}`, `{"ep\u017f":2}`, `{"b":[01]}`, `{"b":"1"}`, `[1,2]`, ``, `{"batch":[[1],]}`,
	`{"b":[1.5e-320,-0,1E+2]}`, "{\"b\":[1]}\x00",
}

func TestDecodeSolveRequestMatchesEncodingJSON(t *testing.T) {
	for _, s := range solveRequestSeeds {
		var got SolveRequest
		gotErr := decodeSolveRequest([]byte(s), &got)
		want, wantErr := refDecode([]byte(s))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec err %v, encoding/json err %v", s, gotErr, wantErr)
		}
		if gotErr == nil && !sameRequest(got, want) {
			t.Fatalf("%q: codec %+v, encoding/json %+v", s, got, want)
		}
	}
}

// FuzzDecodeSolveRequest: on any body the codec accepts exactly what
// encoding/json accepted (null entries and trailing data aside, which it
// now rejects) and decodes it to the same bits.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, s := range solveRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SolveRequest
		gotErr := decodeSolveRequest(data, &got)
		want, wantErr := refDecode(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec err %v, encoding/json err %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !sameRequest(got, want) {
			t.Fatalf("%q: codec %+v, encoding/json %+v", data, got, want)
		}
	})
}

// postRaw posts body with the given content type and returns the reply.
func postRaw(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSolveDeclaredLengthBoundsMemory: a body declared at the size cap
// that never arrives costs the server what was sent, not what was declared.
func TestSolveDeclaredLengthBoundsMemory(t *testing.T) {
	ts := testServer(t, Config{})
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "path:100"}, &reg)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /graphs/%s/solve HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n{\"b\":[1,", reg.ID, int64(maxBodyBytes))
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", resp.StatusCode)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("a %d-byte declared body that sent 8 bytes allocated %d bytes", int64(maxBodyBytes), got)
	}
}

// TestDecodeSolveRequestCommasBounded: bodies of bare commas, in b and in
// a batch row, fail without reserving memory per comma.
func TestDecodeSolveRequestCommasBounded(t *testing.T) {
	commas := strings.Repeat(",", 4<<20)
	for _, body := range []string{`{"b":[1` + commas + `]}`, `{"batch":[[1],[1` + commas + `]]}`} {
		data := []byte(body)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var req SolveRequest
		err := decodeSolveRequest(data, &req)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%.20s…: accepted", body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
			t.Fatalf("%.20s…: rejecting %d commas allocated %d bytes", body, len(commas), got)
		}
	}
}

// TestSolveTraceDecodeEncode: the request trace names the wrapper's own
// work — ?debug=timings and the stage histograms carry decode and encode,
// and total_ms spans them.
func TestSolveTraceDecodeEncode(t *testing.T) {
	ts := testServer(t, Config{})
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "path:3000"}, &reg)
	var resp SolveResponse
	url := fmt.Sprintf("%s/graphs/%s/solve?debug=timings", ts.URL, reg.ID)
	if code := doJSON(t, "POST", url, SolveRequest{B: meanFreeRHS(reg.N, 4)}, &resp); code != 200 {
		t.Fatalf("solve: status %d", code)
	}
	tm := resp.Timings
	if tm == nil || tm.DecodeMS <= 0 || tm.EncodeMS <= 0 {
		t.Fatalf("timings lack decode/encode: %+v", tm)
	}
	if inner := tm.DecodeMS + tm.QueueMS + tm.WorkspaceMS + tm.PCGMS + tm.PrecondMS + tm.EncodeMS; inner > tm.TotalMS*1.001 {
		t.Fatalf("stages %.3f ms exceed total %.3f ms", inner, tm.TotalMS)
	}
	m := scrape(t, ts.URL)
	for _, stage := range []string{"decode", "encode"} {
		if got := m[fmt.Sprintf(`parlap_solve_stage_duration_seconds_count{stage="%s"}`, stage)]; got != 1 {
			t.Errorf("%s stage histogram count = %v, want 1", stage, got)
		}
		if got := m[fmt.Sprintf(`parlap_graph_stage_seconds_total{graph="%s",stage="%s"}`, reg.ID, stage)]; got <= 0 {
			t.Errorf("per-graph %s stage total = %v, want > 0", stage, got)
		}
	}
}

// TestStreamRowsMatchEncodingJSON: streamed solution rows are byte for byte
// the rows encoding/json wrote before the codec took over.
func TestStreamRowsMatchEncodingJSON(t *testing.T) {
	ts := testServer(t, Config{StreamWindow: 2})
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:8x8"}, &reg)
	var body bytes.Buffer
	for r := 0; r < 3; r++ {
		if err := graphio.WriteVectorRow(&body, meanFreeRHS(reg.N, int64(r))); err != nil {
			t.Fatal(err)
		}
	}
	resp, data := postRaw(t, fmt.Sprintf("%s/graphs/%s/solve/stream", ts.URL, reg.ID), "application/x-ndjson", body.Bytes())
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d: %s", resp.StatusCode, data)
	}
	type row struct {
		Row        int       `json:"row"`
		X          []float64 `json:"x"`
		Iterations int       `json:"iterations"`
		Converged  bool      `json:"converged"`
		Residual   float64   `json:"residual"`
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	rows := 0
	for ; sc.Scan(); rows++ {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(r)
		if !bytes.Equal(sc.Bytes(), want) || r.Row != rows {
			t.Fatalf("row %d:\n got %s\nwant %s", rows, sc.Bytes(), want)
		}
	}
	if rows != 3 {
		t.Fatalf("%d rows, want 3", rows)
	}
}
