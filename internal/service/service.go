// Package service is the serving layer over the solver: a bounded LRU cache
// of built preconditioner chains keyed by a canonical graph hash, build-once
// deduplication for concurrent registrations, and admission control that
// splits a global worker budget across bounded in-flight solves. The
// economics follow the paper directly — chain construction is the expensive,
// near-linear-work step, each subsequent solve is cheap — so the service's
// job is to make one construction serve many right-hand sides, across
// requests and across clients, the way Dhulipala–Blelloch–Shun wrap
// theoretically efficient primitives in reusable serving layers.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/graph"
	"parlap/internal/obs"
	"parlap/internal/solver"
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxGraphs bounds the chain cache (LRU eviction beyond it). Default 16.
	MaxGraphs int
	// MaxInflight bounds concurrently executing solves; further requests
	// queue until a slot frees (or their context expires). Default 4.
	MaxInflight int
	// MaxInflightPerGraph caps the solve slots one graph may hold while
	// requests for *other* graphs are waiting — the per-graph sharding that
	// keeps a hot graph from starving the rest. A graph with no competition
	// still gets every slot (fair fallback). Default max(1, MaxInflight/2).
	MaxInflightPerGraph int
	// MaxCacheBytes bounds the total estimated memory retained by cached
	// chains (graph + Laplacian + per-level sparsifier/elimination state +
	// sparse bottom factor, per entry). The LRU evicts to both this byte
	// budget and the MaxGraphs count, so a handful of huge chains cannot
	// OOM the server even while the entry count looks harmless.
	// Default 2 GiB.
	MaxCacheBytes int64
	// Workers is the global worker budget split evenly across the
	// MaxInflight solve slots (each admitted solve runs with
	// max(1, Workers/MaxInflight) goroutines). 0 = GOMAXPROCS.
	Workers int
	// DefaultEps is the solve tolerance when a request omits eps.
	// Default 1e-8.
	DefaultEps float64
	// MaxBatch caps the number of right-hand sides accepted in one solve
	// request. Default 64.
	MaxBatch int
	// StreamWindow is the number of ndjson RHS rows a streaming solve
	// gathers into one SolveBatch window. Each window is admitted like a
	// discrete solve request, so a long stream shares the solve slots
	// fairly instead of holding one for its whole duration. Default
	// MaxBatch.
	StreamWindow int
	// MaxStreamRowBytes bounds one ndjson row of a streaming solve.
	// Default graphio.DefaultMaxRowBytes (16 MiB).
	MaxStreamRowBytes int
	// MaxConcurrentBuilds bounds chain constructions running at once —
	// builds are the expensive step and run with the full worker budget, so
	// without a bound a burst of registrations oversubscribes the machine.
	// Further registrations queue. Default 2.
	MaxConcurrentBuilds int
	// MaxGraphVertices / MaxGraphEdges reject oversized registration
	// payloads up front (a build is O(m log m) time and O(m) memory that
	// cannot be cancelled once started). Defaults 2e6 / 16e6.
	MaxGraphVertices int
	MaxGraphEdges    int
	// Chain are the preconditioner-chain construction parameters; the zero
	// value means solver.DefaultChainParams().
	Chain *solver.ChainParams
	// Snapshots, when non-nil, persists built chains as content-addressed
	// snapshot blobs (see internal/chainio): a registration whose chain is
	// missing from the cache first tries to restore it from the store —
	// bit-identical to a fresh build at a fraction of the cost — and falls
	// back to building on any miss or corruption. RestoreAll / SnapshotAll
	// bulk-load and bulk-persist the cache around process restarts.
	Snapshots chainio.BlobStore
	// SnapshotOnBuild writes a snapshot (write-behind, off the registration's
	// critical path) after every successful fresh build. Without it only
	// SnapshotAll — the shutdown pass — persists chains.
	SnapshotOnBuild bool
	// Logger receives the server's structured logs: one line per HTTP
	// request (with the minted request id), chain build/restore events, and
	// write-behind snapshot results. Nil discards them — the library stays
	// silent unless the embedder opts in.
	Logger *slog.Logger
	// NodeID names this server instance in a multi-node deployment. It is
	// surfaced in /healthz so routers, probes, and people can tell shards
	// apart; it has no effect on serving. Empty for single-node use.
	NodeID string
}

// Server owns the graph registry. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	chain solver.ChainParams

	mu         sync.Mutex
	entries    map[string]*entry
	lru        *list.List // front = most recently used; values are *entry
	cacheBytes int64      // Σ entry.bytes of finished cached builds

	admit    *admitter     // per-graph-sharded solve admission
	buildSem chan struct{} // build admission slots
	inflight atomic.Int64

	log *slog.Logger
	met *metrics

	// ridPrefix/ridSeq mint per-request ids (see nextRequestID).
	ridPrefix string
	ridSeq    atomic.Int64

	start        time.Time
	registers    atomic.Int64 // POST /graphs requests accepted
	cacheHits    atomic.Int64 // registrations answered from cache
	evictions    atomic.Int64
	builds       atomic.Int64 // chains built or restored
	buildNanos   atomic.Int64 // cumulative build/restore wall time
	buildWaiting atomic.Int64 // registrations queued for a build slot

	snapWG     sync.WaitGroup // in-flight write-behind snapshot writes
	snapHits   atomic.Int64   // chains restored from the snapshot store
	snapMisses atomic.Int64   // restore attempts that found no usable blob
	snapWrites atomic.Int64   // snapshot blobs written
	snapErrors atomic.Int64   // snapshot encode/decode/IO failures (all fell back safely)
}

// entry is one cached graph + its built solver. The build runs exactly once
// (the first registrar builds; concurrent registrars of the same hash wait
// on built), and the solver is read-only afterwards, so solves need no
// entry-level locking — only lifecycle does: an eviction may not reclaim
// the solver (and its pooled workspaces) while a solve or streaming window
// is executing against it, so users of e.solver pin the entry through
// lookupRef/release and reclamation waits for the last reference.
type entry struct {
	id     string
	source string
	n, m   int
	elem   *list.Element

	built    chan struct{} // closed when the build finished (ok or not)
	solver   *solver.Solver
	buildErr error
	buildDur time.Duration
	levels   int   // chain depth (set once, after build; survives reclaim)
	restored bool  // chain came from a snapshot, not a fresh build
	bytes    int64 // footprint currently charged against cacheBytes (Server.mu)
	refs     int   // active solves/streams/stat reads (Server.mu)
	evicted  bool  // dropped from the cache; reclaim when refs hits 0 (Server.mu)

	hits       atomic.Int64 // re-registrations served from cache
	solves     atomic.Int64 // solve requests served
	rhsServed  atomic.Int64 // right-hand sides solved (batch counts each)
	iterations atomic.Int64 // cumulative outer PCG iterations

	lat     obs.Histogram               // end-to-end solve latency, ns
	rhsLat  obs.Histogram               // per-RHS latency, ns (window time / batch width)
	stageNS [obs.NumStages]atomic.Int64 // cumulative per-stage solve time
}

// New returns a Server with cfg's zero fields defaulted.
func New(cfg Config) *Server {
	if cfg.MaxGraphs <= 0 {
		cfg.MaxGraphs = 16
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxInflightPerGraph <= 0 {
		cfg.MaxInflightPerGraph = cfg.MaxInflight / 2
		if cfg.MaxInflightPerGraph < 1 {
			cfg.MaxInflightPerGraph = 1
		}
	}
	if cfg.MaxCacheBytes <= 0 {
		cfg.MaxCacheBytes = 2 << 30
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultEps <= 0 {
		cfg.DefaultEps = 1e-8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = cfg.MaxBatch
	}
	if cfg.MaxConcurrentBuilds <= 0 {
		cfg.MaxConcurrentBuilds = 2
	}
	if cfg.MaxGraphVertices <= 0 {
		cfg.MaxGraphVertices = 2_000_000
	}
	if cfg.MaxGraphEdges <= 0 {
		cfg.MaxGraphEdges = 16_000_000
	}
	chain := solver.DefaultChainParams()
	if cfg.Chain != nil {
		chain = *cfg.Chain
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	now := time.Now()
	return &Server{
		cfg:       cfg,
		chain:     chain,
		entries:   make(map[string]*entry),
		lru:       list.New(),
		admit:     newAdmitter(cfg.MaxInflight, cfg.MaxInflightPerGraph),
		buildSem:  make(chan struct{}, cfg.MaxConcurrentBuilds),
		log:       logger,
		met:       newMetrics(),
		ridPrefix: fmt.Sprintf("%08x", uint32(now.UnixNano())),
		start:     now,
	}
}

// workersForOccupancy splits the global worker budget by the number of
// solves actually executing (the admitted request included), so a lone
// request on an idle server gets the whole budget while a full house gets
// Workers/MaxInflight each. The split only affects scheduling — results
// are bitwise identical for every workers value — so occupancy-raciness
// is harmless.
func (s *Server) workersForOccupancy(inflight int64) int {
	if inflight < 1 {
		inflight = 1
	}
	w := s.cfg.Workers / int(inflight)
	if w < 1 {
		w = 1
	}
	return w
}

// GraphID returns the canonical cache key of g — graph.CanonicalID, the
// same content address persisted chain snapshots are stored under. Two
// registrations hash equal iff they describe the same weighted multigraph
// (up to edge order and endpoint orientation), so a graph's chain is built
// exactly once no matter how many clients register it or in what form.
func GraphID(g *graph.Graph) string { return graph.CanonicalID(g) }

// TooLargeError rejects oversized registration payloads.
type TooLargeError struct{ msg string }

func (e *TooLargeError) Error() string { return e.msg }

// ErrBuildAborted marks an entry whose registrar left the build queue
// before a build ever started (context expiry). Waiters that inherited the
// entry should treat it as transient: the entry is removed from the cache
// before this error is published, so re-registering retries cleanly.
var ErrBuildAborted = errors.New("service: chain build aborted before it started; re-register to retry")

// Register inserts g into the cache (building its chain if absent) and
// returns the entry. cached reports whether the chain already existed —
// when true the registrar paid nothing but the hash. Builds pass their own
// admission control (MaxConcurrentBuilds); ctx governs time spent queued
// for a build slot (a build cannot be cancelled once started).
func (s *Server) Register(ctx context.Context, g *graph.Graph, source string) (e *entry, cached bool, err error) {
	if g.N > s.cfg.MaxGraphVertices {
		return nil, false, &TooLargeError{fmt.Sprintf("service: graph has %d vertices, limit %d", g.N, s.cfg.MaxGraphVertices)}
	}
	if g.M() > s.cfg.MaxGraphEdges {
		return nil, false, &TooLargeError{fmt.Sprintf("service: graph has %d edges, limit %d", g.M(), s.cfg.MaxGraphEdges)}
	}
	id := GraphID(g)
	s.registers.Add(1)
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		select {
		case <-e.built:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.buildErr != nil {
			// Not a hit: the build this registration would have reused
			// never produced a chain.
			return e, true, e.buildErr
		}
		e.hits.Add(1)
		s.cacheHits.Add(1)
		return e, true, nil
	}
	e = &entry{
		id:     id,
		source: source,
		n:      g.N,
		m:      g.M(),
		built:  make(chan struct{}),
	}
	e.elem = s.lru.PushFront(e)
	s.entries[id] = e
	s.evictLocked(e)
	s.mu.Unlock()

	// First registrar builds (under the build-slot bound); everyone else
	// (register or solve) waits on e.built. Construction is the expensive,
	// latency-insensitive step, so an admitted build gets the whole worker
	// budget rather than a solve slot's share.
	s.buildWaiting.Add(1)
	select {
	case s.buildSem <- struct{}{}:
		s.buildWaiting.Add(-1)
	case <-ctx.Done():
		s.buildWaiting.Add(-1)
		// Remove the entry BEFORE publishing the abort, so concurrent
		// waiters that re-register get a fresh entry (and a fresh build)
		// rather than inheriting this registrar's cancellation.
		e.buildErr = fmt.Errorf("%w (registrar: %v)", ErrBuildAborted, ctx.Err())
		s.removeFailed(e)
		close(e.built)
		return nil, false, e.buildErr
	}
	t0 := time.Now()
	// Restore-on-miss: a persisted snapshot of this exact graph (same
	// content address) reassembles into a chain that solves bit-identically
	// to the one a fresh build would produce, at a fraction of the cost.
	// Any failure — missing blob, corruption, version skew — falls back to
	// building; a snapshot store can make the server faster, never wronger.
	sv, restored := s.tryRestore(id)
	if sv == nil {
		sv, err = solver.NewWithOptions(g, s.chain, solver.Options{Workers: s.cfg.Workers}, nil)
	}
	<-s.buildSem
	e.buildDur = time.Since(t0)
	e.solver, e.buildErr, e.restored = sv, err, restored
	if err == nil {
		s.builds.Add(1)
		s.buildNanos.Add(e.buildDur.Nanoseconds())
	}
	logAttrs := []any{
		"request_id", requestID(ctx),
		"graph", id,
		"n", g.N, "m", g.M(),
		"restored", restored,
		"duration_ms", float64(e.buildDur.Microseconds()) / 1000,
		"err", err,
	}
	if err == nil {
		// Where the chain stops and why (the truncation rule's decision).
		bi := sv.Chain.BottomInfo()
		logAttrs = append(logAttrs, "levels", bi.Level, "bottom_n", bi.N, "bottom_nnz_l", bi.NNZL, "stop", bi.Stop)
		// Where the build time went (absent on a restore, which builds nothing).
		if bt := sv.Chain.Build; bt != nil {
			for _, ph := range bt.Phases() {
				logAttrs = append(logAttrs, ph.Name+"_ms", ph.MS)
			}
		}
	}
	s.log.Info("chain_build", logAttrs...)
	if err != nil {
		// A failed build must not poison the cache key.
		s.removeFailed(e)
	}
	if err == nil {
		// Charge the entry's footprint before publishing it, so eviction
		// never sees a finished entry with unaccounted bytes.
		e.levels = sv.Chain.Depth()
		e.bytes = sv.MemoryBytes()
		s.mu.Lock()
		s.cacheBytes += e.bytes
		s.mu.Unlock()
		if !restored && s.cfg.SnapshotOnBuild && s.cfg.Snapshots != nil {
			// Write-behind: persisting the freshly built chain must not hold
			// up the registration (or the waiters on e.built). The goroutine
			// captures sv directly — the solver is read-only and outlives any
			// later eviction of the entry. The registration's request id rides
			// along so the snapshot log line joins the request's trail.
			rid := requestID(ctx)
			s.snapWG.Add(1)
			go func() {
				defer s.snapWG.Done()
				t0 := time.Now()
				serr := s.snapshotOne(id, sv)
				s.log.Info("snapshot_write_behind",
					"request_id", rid,
					"graph", id,
					"duration_ms", float64(time.Since(t0).Microseconds())/1000,
					"err", serr,
				)
			}()
		}
	}
	close(e.built)
	if err == nil {
		// Finished builds can now be eviction victims; trim any overshoot
		// (count or bytes) the in-flight-build exemption allowed. The
		// freshly built entry is exempt — its registrar is about to return
		// 200 with this id.
		s.mu.Lock()
		s.evictLocked(e)
		s.mu.Unlock()
	}
	return e, false, err
}

// removeFailed drops an entry whose build did not produce a solver.
func (s *Server) removeFailed(e *entry) {
	s.mu.Lock()
	if cur, ok := s.entries[e.id]; ok && cur == e {
		delete(s.entries, e.id)
		s.lru.Remove(e.elem)
	}
	s.mu.Unlock()
}

// evictLocked trims the cache to MaxGraphs entries AND MaxCacheBytes of
// estimated chain memory, evicting only the least recently used *finished*
// entries: evicting an in-flight build (or the exempt entry, whose registrar
// is about to hand out its id) would produce a 200 registration whose id
// immediately 404s and would waste the build. When every excess entry is
// still building the cache overshoots temporarily (bounded by the
// concurrent-registration burst); each build's completion re-trims. A lone
// entry larger than the whole byte budget is kept while it is exempt and
// becomes the first victim of the next trim. Callers hold s.mu.
func (s *Server) evictLocked(exempt *entry) {
	for len(s.entries) > s.cfg.MaxGraphs || s.cacheBytes > s.cfg.MaxCacheBytes {
		var victim *entry
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			cand := el.Value.(*entry)
			if cand == exempt {
				continue
			}
			select {
			case <-cand.built:
				victim = cand
			default:
				continue
			}
			break
		}
		if victim == nil {
			return // only in-flight builds (or the exempt entry) in excess
		}
		delete(s.entries, victim.id)
		s.lru.Remove(victim.elem)
		s.cacheBytes -= victim.bytes
		victim.evicted = true
		if victim.refs == 0 {
			// No active solve/stream/stat read: drop the solver (and its
			// pooled workspaces) now. Otherwise the last release reclaims —
			// evicting out from under an executing solve must never yank its
			// chain or scratch pools away.
			victim.solver = nil
		}
		s.evictions.Add(1)
	}
}

// lookupRef returns the entry for id with a reference held, refreshing its
// LRU position. The reference pins e.solver against reclaim-on-eviction;
// every caller must pair it with release.
func (s *Server) lookupRef(id string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if ok {
		s.lru.MoveToFront(e.elem)
		e.refs++
	}
	return e, ok
}

// lookupOrRestoreRef is lookupRef with a snapshot-store fallback: a solve
// (or stats read) for a graph this process has never built can still be
// served if a peer — or a previous life of this process — persisted the
// chain. This is what makes failover cheap in a multi-node deployment: the
// replica that inherits a graph after its owner dies warms the chain from
// the shared store on the first solve instead of answering 404 until
// someone re-registers. Restores are bounded by the build semaphore (a
// decode materializes a full chain's memory) and count as builds in the
// telemetry, with source "snapshot". On success the entry is returned with
// one reference held, exactly like lookupRef; the caller must release it.
func (s *Server) lookupOrRestoreRef(ctx context.Context, id string) (*entry, error) {
	if e, ok := s.lookupRef(id); ok {
		return e, nil
	}
	if s.cfg.Snapshots == nil {
		return nil, &NotFoundError{ID: id}
	}
	s.buildWaiting.Add(1)
	select {
	case s.buildSem <- struct{}{}:
		s.buildWaiting.Add(-1)
	case <-ctx.Done():
		s.buildWaiting.Add(-1)
		return nil, ctx.Err()
	}
	t0 := time.Now()
	sv, ok := s.tryRestore(id)
	<-s.buildSem
	if !ok {
		return nil, &NotFoundError{ID: id}
	}
	dur := time.Since(t0)
	s.builds.Add(1)
	s.buildNanos.Add(dur.Nanoseconds())
	e := &entry{
		id:       id,
		source:   "snapshot",
		n:        sv.G.N,
		m:        sv.G.M(),
		built:    make(chan struct{}),
		solver:   sv,
		restored: true,
		levels:   sv.Chain.Depth(),
		buildDur: dur,
		bytes:    sv.MemoryBytes(),
	}
	close(e.built)
	s.mu.Lock()
	if cur, raced := s.entries[id]; raced {
		// A concurrent registration or restore won the insert; drop our
		// decode and use the cache's entry (which may still be building —
		// the caller waits on built as usual).
		s.lru.MoveToFront(cur.elem)
		cur.refs++
		s.mu.Unlock()
		return cur, nil
	}
	e.elem = s.lru.PushFront(e)
	s.entries[id] = e
	s.cacheBytes += e.bytes
	e.refs++
	s.evictLocked(e)
	s.mu.Unlock()
	s.log.Info("chain_restore_on_demand",
		"request_id", requestID(ctx),
		"graph", id,
		"duration_ms", float64(dur.Microseconds())/1000,
	)
	return e, nil
}

// release drops a lookupRef reference, reclaiming the solver if the entry
// was evicted while the reference was held.
func (s *Server) release(e *entry) {
	s.mu.Lock()
	e.refs--
	if e.evicted && e.refs == 0 {
		e.solver = nil
	}
	s.mu.Unlock()
}

// recharge re-reads the entry's retained-footprint estimate after a solve
// and folds the delta into the cache accounting. Solves grow the pooled
// per-solve workspaces (a high-water charge inside Solver.MemoryBytes), so
// without this the byte budget drifts: growth was charged at build time
// only, and eviction released only the stale build-time figure — a server
// could hold MaxCacheBytes of accounted chains plus unbounded unaccounted
// pool growth. Keeping e.bytes equal to the charge makes eviction's
// release exact, and re-trimming here keeps cache_bytes within budget even
// when the growth itself causes the overshoot.
func (s *Server) recharge(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.evicted || e.solver == nil {
		return
	}
	nb := e.solver.MemoryBytes()
	if nb != e.bytes {
		s.cacheBytes += nb - e.bytes
		e.bytes = nb
		s.evictLocked(nil)
	}
}

// Solve runs the k right-hand sides bs against graph id under admission
// control: the call blocks until a solve slot frees (or ctx expires), then
// solves with the per-slot share of the worker budget. Slots are sharded
// per graph — a graph already holding MaxInflightPerGraph slots queues
// behind waiting requests for other graphs, so one hot graph cannot starve
// the rest, while an uncontended graph still gets the whole budget.
// len(bs) == 1 takes the single-RHS path; larger batches share one
// preconditioner-chain pass per iteration across all columns.
func (s *Server) Solve(ctx context.Context, id string, bs [][]float64, eps float64) ([][]float64, []solver.SolveStats, error) {
	tStart := time.Now()
	var tr obs.SolveTrace
	e, xs, sts, err := s.solveTraced(ctx, id, bs, eps, &tr)
	if err != nil {
		return nil, nil, err
	}
	tr.TotalNS = time.Since(tStart).Nanoseconds()
	s.observeSolve(e, &tr, len(bs))
	return xs, sts, nil
}

// solveTraced is Solve plus the per-request stage trace: queue wait,
// workspace acquire, outer PCG and per-level preconditioner stages
// overwrite *tr. The caller completes the trace (TotalNS, and
// decode/encode when it has them) and records it with observeSolve on the
// returned entry. Timing never touches the arithmetic.
func (s *Server) solveTraced(ctx context.Context, id string, bs [][]float64, eps float64,
	tr *obs.SolveTrace) (*entry, [][]float64, []solver.SolveStats, error) {
	fail := func(err error) (*entry, [][]float64, []solver.SolveStats, error) {
		s.met.solveErrors.Add(1)
		return nil, nil, nil, err
	}
	e, err := s.lookupOrRestoreRef(ctx, id)
	if err != nil {
		return fail(err)
	}
	defer s.release(e)
	select {
	case <-e.built:
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	if e.buildErr != nil {
		return fail(e.buildErr)
	}
	if len(bs) == 0 {
		return fail(fmt.Errorf("service: empty right-hand-side batch"))
	}
	if len(bs) > s.cfg.MaxBatch {
		return fail(fmt.Errorf("service: batch of %d exceeds limit %d", len(bs), s.cfg.MaxBatch))
	}
	for i, b := range bs {
		if len(b) != e.n {
			return fail(fmt.Errorf("service: rhs %d has %d entries, graph has %d vertices", i, len(b), e.n))
		}
	}
	if eps <= 0 {
		eps = s.cfg.DefaultEps
	}
	tQueue := time.Now()
	if err := s.admit.Acquire(ctx, e.id); err != nil {
		return fail(err)
	}
	queueNS := time.Since(tQueue).Nanoseconds()
	occupancy := s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.admit.Release(e.id)
	}()
	opt := solver.Options{Workers: s.workersForOccupancy(occupancy)}
	xs, sts := e.solver.SolveBatchTraced(bs, eps, opt, tr)
	tr.QueueNS = queueNS
	e.solves.Add(1)
	e.rhsServed.Add(int64(len(bs)))
	for _, st := range sts {
		e.iterations.Add(int64(st.Iterations))
	}
	s.recharge(e)
	return e, xs, sts, nil
}

// NotFoundError reports an unknown (or evicted) graph id.
type NotFoundError struct{ ID string }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("service: unknown graph %q (never registered, or evicted)", e.ID)
}

// GraphStats is the stats document of one cached graph.
type GraphStats struct {
	ID      string  `json:"id"`
	Source  string  `json:"source"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	BuildMS float64 `json:"build_ms"`
	// Restored reports the chain was reassembled from a persisted snapshot
	// (bit-identical to a fresh build) rather than built; BuildMS is then
	// the restore time.
	Restored bool  `json:"restored_from_snapshot"`
	Bytes    int64 `json:"bytes"` // estimated retained chain footprint
	// WorkspaceBytes is the live high-water estimate of pooled per-solve
	// scratch this chain retains between GCs. (Bytes, charged against the
	// cache budget, snapshots Solver.MemoryBytes at build time — before any
	// solve has grown the pools — so the two are reported separately.)
	WorkspaceBytes int64 `json:"workspace_bytes"`
	Levels         int   `json:"levels"`
	EdgeCounts     []int `json:"edge_counts"`
	// Schedule is the calibrated per-level κ schedule: measured spectral
	// bounds of the preconditioned operator, measured vs target condition
	// number, and the derived Chebyshev iteration counts — the production
	// observability for κ-schedule behavior.
	Schedule []solver.LevelSchedule `json:"schedule"`
	// Bottom is where and why the chain stops: the graph the direct solver
	// factors, nnz(L) of its sparse factor, the stop reason, and the
	// accepting truncation probe. With the per-level probes in Schedule it
	// answers "why is this chain N levels deep".
	Bottom solver.BottomSchedule `json:"bottom"`
	// Build is the chain construction's wall time per level and phase
	// (Laplacian assembly, fill analysis, sparsify, eliminate with its rounds
	// and ops, then factor and calibrate) — "why did this build take so
	// long". Omitted when the chain was restored from a snapshot.
	Build      *solver.BuildTimings `json:"build,omitempty"`
	CacheHits  int64                `json:"cache_hits"`
	Solves     int64                `json:"solves"`
	RHSServed  int64                `json:"rhs_served"`
	Iterations int64                `json:"iterations"`
	BottomSolv int64                `json:"bottom_solves"`
	MaxIter    int                  `json:"max_iter"`
	// Timings summarizes this graph's solve telemetry: latency quantiles
	// from the same histogram /metrics exports, and cumulative per-stage
	// solve time (exclusive attribution — cheb+forward+back+bottom
	// partition the preconditioner time). Omitted until a solve has run.
	Timings *GraphTimings `json:"timings,omitempty"`
}

// StageTotalJSON is one stage's cumulative solve time in the stats document.
type StageTotalJSON struct {
	Stage   string  `json:"stage"`
	TotalMS float64 `json:"total_ms"`
}

// GraphTimings is the per-graph timings block of the stats document. The
// first quantile set is per solve REQUEST (a batch or stream window counts
// once); the RHS* set is per right-hand side — the window's time divided
// evenly across its rows — which is the number to compare against
// single-solve latency when judging what batching buys.
type GraphTimings struct {
	Solves  int64            `json:"solves_observed"`
	MeanMS  float64          `json:"mean_ms"`
	P50MS   float64          `json:"p50_ms"`
	P95MS   float64          `json:"p95_ms"`
	P99MS   float64          `json:"p99_ms"`
	RHS     int64            `json:"rhs_observed"`
	RHSMean float64          `json:"rhs_mean_ms"`
	RHSP50  float64          `json:"rhs_p50_ms"`
	RHSP95  float64          `json:"rhs_p95_ms"`
	RHSP99  float64          `json:"rhs_p99_ms"`
	Stages  []StageTotalJSON `json:"stages"`
}

// Stats returns the stats document for graph id. ctx bounds the wait on an
// in-flight build of that graph.
func (s *Server) Stats(ctx context.Context, id string) (*GraphStats, error) {
	e, err := s.lookupOrRestoreRef(ctx, id)
	if err != nil {
		return nil, err
	}
	defer s.release(e)
	select {
	case <-e.built:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.buildErr != nil {
		return nil, e.buildErr
	}
	st := &GraphStats{
		ID: e.id, Source: e.source, N: e.n, M: e.m,
		BuildMS:        float64(e.buildDur.Microseconds()) / 1000,
		Restored:       e.restored,
		Bytes:          e.bytes,
		WorkspaceBytes: e.solver.WorkspaceBytes(),
		Levels:         e.solver.Chain.Depth(),
		EdgeCounts:     e.solver.Chain.EdgeCounts(),
		Schedule:       e.solver.Chain.Schedule(),
		Bottom:         e.solver.Chain.BottomInfo(),
		Build:          e.solver.Chain.Build,
		CacheHits:      e.hits.Load(),
		Solves:         e.solves.Load(),
		RHSServed:      e.rhsServed.Load(),
		Iterations:     e.iterations.Load(),
		BottomSolv:     e.solver.Chain.BottomSolves(),
		MaxIter:        e.solver.MaxIter,
	}
	if snap := e.lat.Snapshot(); snap.Count > 0 {
		toMS := func(ns int64) float64 { return float64(ns) / 1e6 }
		t := &GraphTimings{
			Solves: snap.Count,
			MeanMS: snap.Mean() / 1e6,
			P50MS:  toMS(snap.Quantile(0.50)),
			P95MS:  toMS(snap.Quantile(0.95)),
			P99MS:  toMS(snap.Quantile(0.99)),
		}
		if rs := e.rhsLat.Snapshot(); rs.Count > 0 {
			t.RHS = rs.Count
			t.RHSMean = rs.Mean() / 1e6
			t.RHSP50 = toMS(rs.Quantile(0.50))
			t.RHSP95 = toMS(rs.Quantile(0.95))
			t.RHSP99 = toMS(rs.Quantile(0.99))
		}
		for _, stage := range obs.Stages() {
			t.Stages = append(t.Stages, StageTotalJSON{
				Stage:   stage.String(),
				TotalMS: toMS(e.stageNS[stage].Load()),
			})
		}
		st.Timings = t
	}
	return st, nil
}

// ServerStats is the service-wide health/stats document.
type ServerStats struct {
	Status string `json:"status"`
	// NodeID is the shard name from Config.NodeID; empty on a single node.
	NodeID string `json:"node_id,omitempty"`
	// SnapshotStore reports whether a snapshot store is configured — in a
	// cluster, whether this node can warm-restore graphs owned by a failed
	// peer instead of rebuilding them.
	SnapshotStore bool `json:"snapshot_store"`
	Graphs        int  `json:"graphs"`
	MaxGraphs     int  `json:"max_graphs"`
	// CacheBytes / MaxCacheBytes are the byte-accounted cache occupancy and
	// budget: the sum of every cached chain's estimated retained footprint,
	// the quantity eviction trims alongside the entry count.
	CacheBytes    int64 `json:"cache_bytes"`
	MaxCacheBytes int64 `json:"max_cache_bytes"`
	Registers     int64 `json:"registers"`
	CacheHits     int64 `json:"cache_hits"`
	Evictions     int64 `json:"evictions"`
	// Snapshot counters (all zero when no snapshot store is configured):
	// hits are chains restored instead of rebuilt (boot-time RestoreAll and
	// registration-time restore-on-miss both count), misses are restore
	// attempts that fell back to a build, writes are blobs persisted, and
	// errors are encode/decode/IO failures — every one of which degraded to
	// a fresh build or a skipped write, never an outage.
	SnapshotHits   int64 `json:"snapshot_hits"`
	SnapshotMisses int64 `json:"snapshot_misses"`
	SnapshotWrites int64 `json:"snapshot_writes"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	Inflight       int64 `json:"inflight"`
	MaxInflight    int   `json:"max_inflight"`
	// MaxInflightPerGraph is the per-graph solve-slot cap applied while
	// other graphs are waiting (the admission sharding).
	MaxInflightPerGraph int `json:"max_inflight_per_graph"`
	Workers             int `json:"workers"`
	// PerSolveW is the per-solve worker share at full occupancy; an
	// admitted solve on a quieter server gets proportionally more.
	PerSolveW int     `json:"workers_per_solve_full"`
	UptimeSec float64 `json:"uptime_sec"`
}

// Health returns the service-wide stats document.
func (s *Server) Health() *ServerStats {
	s.mu.Lock()
	n := len(s.entries)
	bytes := s.cacheBytes
	s.mu.Unlock()
	return &ServerStats{
		Status: "ok", NodeID: s.cfg.NodeID,
		SnapshotStore: s.cfg.Snapshots != nil,
		Graphs:        n, MaxGraphs: s.cfg.MaxGraphs,
		CacheBytes: bytes, MaxCacheBytes: s.cfg.MaxCacheBytes,
		Registers: s.registers.Load(), CacheHits: s.cacheHits.Load(),
		Evictions:           s.evictions.Load(),
		SnapshotHits:        s.snapHits.Load(),
		SnapshotMisses:      s.snapMisses.Load(),
		SnapshotWrites:      s.snapWrites.Load(),
		SnapshotErrors:      s.snapErrors.Load(),
		Inflight:            s.inflight.Load(),
		MaxInflight:         s.cfg.MaxInflight,
		MaxInflightPerGraph: s.cfg.MaxInflightPerGraph,
		Workers:             s.cfg.Workers,
		PerSolveW:           s.workersForOccupancy(int64(s.cfg.MaxInflight)),
		UptimeSec:           time.Since(s.start).Seconds(),
	}
}

// List returns the ids currently cached, most recently used first.
func (s *Server) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).id)
	}
	return out
}

// describeSource trims a payload description for the stats document.
func describeSource(src string) string {
	src = strings.TrimSpace(src)
	if len(src) > 80 {
		src = src[:77] + "..."
	}
	return src
}
