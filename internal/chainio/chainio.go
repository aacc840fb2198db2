// Package chainio persists built preconditioner chains: a versioned binary
// snapshot format for a fully built solver.Solver, content-addressed by the
// canonical graph hash, plus the pluggable blob storage the serving layer
// writes snapshots through (store.go).
//
// The economics motivating it are the paper's: chain construction is the
// expensive near-linear-work step, every subsequent solve is cheap — so a
// chain that dies with its process turns every restart under load into a
// rebuild stampede. A snapshot captures exactly the state that cannot be
// recomputed cheaply (per-level graphs and sparsifier outputs with exact
// float64 weight bits, elimination op logs, the calibrated Chebyshev
// schedule, the sparse bottom factor and its elimination order, the
// truncation record, ChainParams) and leaves everything
// deterministic-and-cheap (CSRs, component indexes, reverse indexes,
// grounding bookkeeping) to be recomputed on restore by the same
// fixed-schedule passes the build ran — so a restored chain produces
// bit-identical solves to the original for every Workers setting.
//
// Wire layout (all integers little-endian, floats as IEEE-754 bit patterns):
//
//	magic   [8]byte "PLCHSNP\x00"
//	version uint32  (see Version; anything else is rejected)
//	id      uint16 length + bytes (the canonical graph hash, "g" + 32 hex)
//	body    ChainParams, MaxIter, the input graph, per-level payloads,
//	        the bottom graph, its elimination order and grounded sparse
//	        LDL^T factor (column pointers, row positions, L, D), and the
//	        truncation probes + stop reason
//	trailer [32]byte SHA-256 over every preceding byte
//
// Truncation, bit corruption (checksum mismatch), unknown versions, and
// id/content mismatches (the embedded graph re-hashed through
// graph.CanonicalID must equal the stored id) are all rejected with typed
// errors — never a panic, never a silently-wrong chain.
package chainio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/solver"
)

const (
	// Version is the current snapshot format version. Version 5 dropped
	// the float32 level storage and Cuthill–McKee layout fields that
	// version 3 had added (two chain parameters; per level the precision-
	// gate outcome and the permutation). Version 4 replaced the dense bottom triangle with the
	// sparse factor (elimination order, column pointers, row positions, L
	// values, D) and appended the truncation record (probes + stop reason);
	// version 2 appended ChainParams.BudgetLiftVertices (the size-adaptive
	// Chebyshev schedule policy). Other versions are rejected rather than
	// guessed at — rebuilding a chain is cheap next to silently restoring a
	// different schedule.
	Version = 5

	magicLen   = 8
	trailerLen = sha256.Size
	// headerLen is magic + version + id length prefix.
	headerLen = magicLen + 4 + 2
)

var magic = [magicLen]byte{'P', 'L', 'C', 'H', 'S', 'N', 'P', 0}

// ErrCorrupt rejects snapshots whose bytes fail structural validation:
// truncation, checksum mismatch, bad magic, or an inconsistent payload.
var ErrCorrupt = errors.New("chainio: corrupt snapshot")

// ErrVersion rejects snapshots written by an unknown format version.
var ErrVersion = errors.New("chainio: unsupported snapshot version")

// ErrWrongGraph rejects snapshots whose content address does not match the
// requested graph (or whose embedded graph does not re-hash to its own id).
var ErrWrongGraph = errors.New("chainio: snapshot is for a different graph")

// Encode serializes a built solver into a self-verifying snapshot blob
// addressed by id (the graph's canonical hash, as from graph.CanonicalID).
func Encode(s *solver.Solver, id string) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("chainio: id %q too long", id)
	}
	d := s.Snapshot()
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	buf.Write(magic[:])
	w := writer{&buf}
	w.u32(Version)
	w.u16(uint16(len(id)))
	buf.WriteString(id)

	encodeParams(w, &d.Params)
	w.i64(int64(d.MaxIter))
	encodeGraph(w, d.G)
	w.u32(uint32(len(d.Levels)))
	for i := range d.Levels {
		lvl := &d.Levels[i]
		encodeGraph(w, lvl.G)
		encodeGraph(w, lvl.H)
		w.u64(uint64(len(lvl.Subgraph)))
		for _, e := range lvl.Subgraph {
			w.i64(int64(e))
		}
		w.i64(int64(lvl.Sampled))
		w.f64(lvl.StretchS)
		w.u64(uint64(len(lvl.Ops)))
		for j := range lvl.Ops {
			op := &lvl.Ops[j]
			w.u8(uint8(op.Kind))
			w.i32(op.V)
			w.i32(op.A)
			w.i32(op.B)
			w.f64(op.W1)
			w.f64(op.W2)
		}
		w.u64(uint64(len(lvl.RoundEnd)))
		for _, e := range lvl.RoundEnd {
			w.i64(int64(e))
		}
		w.f64(lvl.Kappa)
		w.i64(int64(lvl.ChebIts))
		w.f64(lvl.EigHi)
		w.f64(lvl.EigLo)
		w.f64(lvl.KappaMeasured)
		w.bool(lvl.Calibrated)
	}
	encodeGraph(w, d.BottomG)
	w.u64(uint64(len(d.BottomOrder)))
	for _, v := range d.BottomOrder {
		w.i32(int32(v))
	}
	w.i32s(d.Bottom.ColPtr)
	w.i32s(d.Bottom.RowPos)
	w.f64s(d.Bottom.L)
	w.f64s(d.Bottom.D)
	w.u32(uint32(len(d.Probes)))
	for _, pr := range d.Probes {
		w.i64(int64(pr.Level))
		w.i64(pr.SolveOps)
		w.i64(pr.SweepOps)
		w.bool(pr.Abandoned)
	}
	w.u16(uint16(len(d.Stop)))
	buf.WriteString(d.Stop)

	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// Decode parses, verifies and reassembles a snapshot blob into a ready-to-
// solve Solver running with opt's execution policy. wantID, when non-empty,
// must match the snapshot's stored id; the embedded graph is additionally
// re-hashed and must match the stored id, so a blob renamed onto the wrong
// key can never serve a wrong chain. Verification order: length, checksum,
// magic, version, id — so corruption is reported as corruption even when it
// hits the header fields themselves.
func Decode(data []byte, wantID string, opt solver.Options) (*solver.Solver, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any valid snapshot", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := &reader{data: body}
	if !bytes.Equal(r.bytes(magicLen), magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.u32(); v != Version {
		return nil, fmt.Errorf("%w: got version %d, this build reads %d", ErrVersion, v, Version)
	}
	id := string(r.bytes(int(r.u16())))
	if wantID != "" && id != wantID {
		return nil, fmt.Errorf("%w: snapshot addresses %q, want %q", ErrWrongGraph, id, wantID)
	}

	d := &solver.SnapshotData{}
	decodeParams(r, &d.Params)
	d.MaxIter = int(r.i64())
	d.G = decodeGraph(r)
	nLevels := r.u32()
	if r.err == nil && uint64(nLevels) > uint64(r.remaining()) {
		r.fail("level count %d exceeds payload", nLevels)
	}
	for i := 0; r.err == nil && i < int(nLevels); i++ {
		lvl := solver.SnapshotLevel{}
		lvl.G = decodeGraph(r)
		lvl.H = decodeGraph(r)
		nSub := r.count(8)
		lvl.Subgraph = make([]int, 0, nSub)
		for j := 0; r.err == nil && j < nSub; j++ {
			lvl.Subgraph = append(lvl.Subgraph, int(r.i64()))
		}
		lvl.Sampled = int(r.i64())
		lvl.StretchS = r.f64()
		nOps := r.count(29) // kind u8 + three i32 + two f64 per op
		lvl.Ops = make([]solver.ElimOp, 0, nOps)
		for j := 0; r.err == nil && j < nOps; j++ {
			var op solver.ElimOp
			k := r.u8()
			if k > 2 {
				r.fail("op kind %d unknown", k)
				break
			}
			op.Kind = solver.ElimKind(k)
			op.V = r.i32()
			op.A = r.i32()
			op.B = r.i32()
			op.W1 = r.f64()
			op.W2 = r.f64()
			lvl.Ops = append(lvl.Ops, op)
		}
		nRounds := r.count(8)
		lvl.RoundEnd = make([]int, 0, nRounds)
		for j := 0; r.err == nil && j < nRounds; j++ {
			lvl.RoundEnd = append(lvl.RoundEnd, int(r.i64()))
		}
		lvl.Kappa = r.f64()
		lvl.ChebIts = int(r.i64())
		lvl.EigHi = r.f64()
		lvl.EigLo = r.f64()
		lvl.KappaMeasured = r.f64()
		lvl.Calibrated = r.bool()
		d.Levels = append(d.Levels, lvl)
	}
	d.BottomG = decodeGraph(r)
	// Every count is checked against the bytes actually remaining before it
	// sizes an allocation. Index validity — the order a bijection onto the
	// kept vertices, monotone column pointers, row positions strictly below
	// the diagonal and in range — is checked by AssembleSnapshot
	// (matrix.NewLaplacianFactorFromParts) before the factor is ever used.
	d.BottomOrder = make([]int, r.count(4))
	for j := range d.BottomOrder {
		d.BottomOrder[j] = int(r.i32())
	}
	d.Bottom = &matrix.SparseLDL{ColPtr: r.i32s(), RowPos: r.i32s(), L: r.f64s(), D: r.f64s()}
	nProbes := r.u32()
	if r.err == nil && uint64(nProbes) > uint64(r.remaining()/25) {
		r.fail("probe count %d exceeds payload", nProbes)
	}
	for j := 0; r.err == nil && j < int(nProbes); j++ {
		d.Probes = append(d.Probes, solver.TruncationProbe{
			Level: int(r.i64()), SolveOps: r.i64(), SweepOps: r.i64(), Abandoned: r.bool(),
		})
	}
	d.Stop = string(r.bytes(int(r.u16())))
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, r.remaining())
	}

	// Content addressing: the embedded graph must hash to the stored id, so
	// a snapshot can only ever be replayed against the graph it was built
	// from, no matter what key the blob was filed under.
	if got := graph.CanonicalID(d.G); got != id {
		return nil, fmt.Errorf("%w: embedded graph hashes to %q, snapshot claims %q", ErrWrongGraph, got, id)
	}
	s, err := solver.AssembleSnapshot(d, opt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// SnapshotID parses just enough of a snapshot blob to report its stored
// content address, without verifying or decoding the payload.
func SnapshotID(data []byte) (string, error) {
	if len(data) < headerLen {
		return "", fmt.Errorf("%w: too short for a header", ErrCorrupt)
	}
	if !bytes.Equal(data[:magicLen], magic[:]) {
		return "", fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	idLen := int(binary.LittleEndian.Uint16(data[magicLen+4:]))
	if len(data) < headerLen+idLen {
		return "", fmt.Errorf("%w: truncated id", ErrCorrupt)
	}
	return string(data[headerLen : headerLen+idLen]), nil
}

func encodeParams(w writer, p *solver.ChainParams) {
	w.f64(p.Sparsify.Kappa)
	w.f64(p.Sparsify.OversampleC)
	w.f64(p.Sparsify.Beta)
	w.i64(int64(p.Sparsify.Lambda))
	w.bool(p.Sparsify.PaperConstants)
	// Sparsify.Workers is runtime execution policy, not chain identity; the
	// restoring process supplies its own.
	w.i64(int64(p.BottomSizeEdges))
	w.i64(int64(p.BottomFloor))
	w.i64(int64(p.MaxBottomVertices))
	w.i64(int64(p.MaxLevels))
	w.f64(p.ShrinkRetry)
	w.f64(p.KappaGrowth)
	w.f64(p.ChebSlack)
	w.i64(int64(p.MaxChebIts))
	w.i64(int64(p.MinChebIts))
	w.i64(int64(p.CalibIters))
	w.f64(p.EigSafety)
	w.f64(p.ChebBudget)
	w.i64(p.Seed)
	w.i64(int64(p.BudgetLiftVertices))
}

func decodeParams(r *reader, p *solver.ChainParams) {
	p.Sparsify.Kappa = r.f64()
	p.Sparsify.OversampleC = r.f64()
	p.Sparsify.Beta = r.f64()
	p.Sparsify.Lambda = int(r.i64())
	p.Sparsify.PaperConstants = r.bool()
	p.BottomSizeEdges = int(r.i64())
	p.BottomFloor = int(r.i64())
	p.MaxBottomVertices = int(r.i64())
	p.MaxLevels = int(r.i64())
	p.ShrinkRetry = r.f64()
	p.KappaGrowth = r.f64()
	p.ChebSlack = r.f64()
	p.MaxChebIts = int(r.i64())
	p.MinChebIts = int(r.i64())
	p.CalibIters = int(r.i64())
	p.EigSafety = r.f64()
	p.ChebBudget = r.f64()
	p.Seed = r.i64()
	p.BudgetLiftVertices = int(r.i64())
}

func encodeGraph(w writer, g *graph.Graph) {
	w.i64(int64(g.N))
	w.u64(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		w.i64(int64(e.U))
		w.i64(int64(e.V))
		w.f64(e.W)
	}
}

// maxSnapshotVertices is a format-level cap on one graph's vertex count —
// far above anything the solver serves (elimination ops index vertices with
// int32 anyway), and low enough that a corrupted count is rejected here
// instead of driving a multi-gigabyte CSR allocation.
const maxSnapshotVertices = 1 << 27

func decodeGraph(r *reader) *graph.Graph {
	n := int(r.i64())
	m := r.count(24)
	if r.err == nil && (n < 0 || n > maxSnapshotVertices) {
		r.fail("implausible vertex count %d", n)
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; r.err == nil && i < m; i++ {
		u := int(r.i64())
		v := int(r.i64())
		wt := r.f64()
		// CSR construction indexes by endpoint unchecked; reject here so a
		// corrupt edge can only ever produce an error, not a panic.
		if u < 0 || u >= n || v < 0 || v >= n {
			r.fail("edge %d endpoints (%d, %d) out of range for %d vertices", i, u, v, n)
			break
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: wt})
	}
	if r.err != nil {
		return &graph.Graph{}
	}
	return graph.FromEdgesW(1, n, edges)
}

// writer appends fixed-width little-endian fields to a buffer. Writes to a
// bytes.Buffer cannot fail, so it carries no error state.
type writer struct{ buf *bytes.Buffer }

func (w writer) u8(v uint8) { w.buf.WriteByte(v) }
func (w writer) bool(v bool) {
	if v {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}
func (w writer) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.buf.Write(b[:])
}
func (w writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}
func (w writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}
func (w writer) i32(v int32) { w.u32(uint32(v)) }
func (w writer) i64(v int64) { w.u64(uint64(v)) }
func (w writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}

// i32s and f64s write a u64 element count followed by the elements.
func (w writer) i32s(vs []int32) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.i32(v)
	}
}
func (w writer) f64s(vs []float64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

// reader consumes fixed-width fields with bounds checking: the first
// out-of-bounds read (or explicit fail) latches err and every subsequent
// read returns zero, so decode loops can run straight-line and check err
// once per section. Checksum verification runs before any reader is built,
// so latched errors indicate a crafted or internally inconsistent payload.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.remaining() < n {
		r.fail("truncated payload (want %d bytes at offset %d of %d)", n, r.off, len(r.data))
		return make([]byte, n&0xffff)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// count reads a u64 element count and sanity-checks it against the bytes
// actually remaining (elemSize bytes per element), so a corrupt count can
// never drive an enormous allocation.
func (r *reader) count(elemSize int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/elemSize) {
		r.fail("count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// i32s and f64s read a counted array (nil when empty), the count checked
// against the remaining payload before it sizes the allocation.
func (r *reader) i32s() []int32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for j := range vs {
		vs[j] = r.i32()
	}
	return vs
}
func (r *reader) f64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for j := range vs {
		vs[j] = r.f64()
	}
	return vs
}
