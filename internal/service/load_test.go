package service

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/gen"
	"parlap/internal/graph"
)

// Tests of the one load path into the chain cache: boot restores, restores
// on demand and registrations share its telemetry, and concurrent callers
// for one graph share one load.

// gatedStore is a BlobStore whose Get blocks until open is closed; gets
// counts the Get calls made so far.
type gatedStore struct {
	chainio.BlobStore
	open chan struct{}
	mu   sync.Mutex
	gets int
}

func newGatedStore(inner chainio.BlobStore) *gatedStore {
	return &gatedStore{BlobStore: inner, open: make(chan struct{})}
}

func (g *gatedStore) Get(id string) ([]byte, error) {
	g.mu.Lock()
	g.gets++
	g.mu.Unlock()
	<-g.open
	return g.BlobStore.Get(id)
}

func (g *gatedStore) getCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gets
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// entryRefs reports the reference count of id's cache entry (0 if absent).
func entryRefs(s *Server, id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		return e.refs
	}
	return 0
}

// persisted builds g's chain on a throwaway server, persists it to a fresh
// directory store, and returns the store and the built chain's answer to bs.
func persisted(t *testing.T, g *graph.Graph, bs [][]float64) (*chainio.DirStore, [][]float64) {
	t.Helper()
	ctx := context.Background()
	ds := snapshotStore(t)
	builder := New(Config{Workers: 2, Snapshots: ds})
	if _, _, err := builder.Register(ctx, g, "t"); err != nil {
		t.Fatal(err)
	}
	xRef, _, err := builder.Solve(ctx, GraphID(g), bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := builder.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return ds, xRef
}

func requireBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s differs from the built chain's answer at entry %d", what, i)
		}
	}
}

// TestRestoreAllCountsAsBuild: a boot restore reports its restore time as
// build_ms and counts in parlap_builds_total / parlap_build_seconds_total,
// like a restore at registration or on demand.
func TestRestoreAllCountsAsBuild(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid2D(12, 12)
	id := GraphID(g)
	ds, _ := persisted(t, g, [][]float64{meanFreeRHS(g.N, 1)})

	s := New(Config{Workers: 2, Snapshots: ds})
	if n, err := s.RestoreAll(ctx); n != 1 || err != nil {
		t.Fatalf("RestoreAll = %d, %v; want 1, nil", n, err)
	}
	st, err := s.Stats(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored || st.BuildMS <= 0 {
		t.Fatalf("stats after a boot restore: restored=%v build_ms=%v; want true, > 0", st.Restored, st.BuildMS)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	m := scrape(t, hs.URL)
	if m["parlap_builds_total"] != 1 || m["parlap_build_seconds_total"] <= 0 {
		t.Fatalf("parlap_builds_total=%v parlap_build_seconds_total=%v; want 1 and > 0",
			m["parlap_builds_total"], m["parlap_build_seconds_total"])
	}
}

// TestConcurrentSolvesShareOneRestore: two solves that arrive together for
// a graph that is only in the store decode it once; the second waits on
// the first's load instead of decoding a copy to throw away.
func TestConcurrentSolvesShareOneRestore(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid2D(12, 12)
	id := GraphID(g)
	bs := [][]float64{meanFreeRHS(g.N, 4)}
	ds, xRef := persisted(t, g, bs)

	store := newGatedStore(ds)
	s := New(Config{Workers: 2, Snapshots: store}) // two build slots
	xs := make([][][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	solve := func(i int) {
		defer wg.Done()
		xs[i], _, errs[i] = s.Solve(ctx, id, bs, 0)
	}
	wg.Add(2)
	go solve(0)
	waitFor(t, "the first solve to read the store", func() bool { return store.getCount() == 1 })
	go solve(1)
	// The second solve either waits on the first's entry (one load) or
	// reads the store itself (a second decode).
	waitFor(t, "the second solve to wait or read", func() bool {
		return entryRefs(s, id) == 2 || store.getCount() == 2
	})
	close(store.open)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		requireBitwise(t, "restored solve", xs[i][0], xRef[0])
	}
	if h := s.Health(); h.SnapshotHits != 1 || s.builds.Load() != 1 {
		t.Fatalf("snapshot_hits=%d builds=%d; want one shared restore", h.SnapshotHits, s.builds.Load())
	}
}

// TestRegisterRetriesAfterFailedRestoreOnly: a registration that arrives
// while a solve's restore-only attempt for the same graph is in flight
// waits on that attempt rather than reading the store a second time, and
// when the attempt finds no blob it builds from its own graph and answers.
func TestRegisterRetriesAfterFailedRestoreOnly(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid2D(12, 12)
	id := GraphID(g)
	bs := [][]float64{meanFreeRHS(g.N, 9)}
	store := newGatedStore(snapshotStore(t)) // holds no blob
	s := New(Config{Workers: 2, Snapshots: store})

	solveErr := make(chan error, 1)
	go func() {
		_, _, err := s.Solve(ctx, id, bs, 0)
		solveErr <- err
	}()
	waitFor(t, "the solve to read the store", func() bool { return store.getCount() == 1 })
	type result struct {
		e      *entry
		cached bool
		err    error
	}
	reg := make(chan result, 1)
	go func() {
		e, cached, err := s.Register(ctx, g, "t")
		reg <- result{e, cached, err}
	}()
	waitFor(t, "the registration to wait or read", func() bool {
		return entryRefs(s, id) == 2 || store.getCount() == 2
	})
	if store.getCount() != 1 {
		t.Fatal("the registration read the store while a restore of the same graph was in flight")
	}
	close(store.open)
	var nf *NotFoundError
	if err := <-solveErr; !errors.As(err, &nf) {
		t.Fatalf("solve of a graph neither registered nor stored: %v, want NotFoundError", err)
	}
	r := <-reg
	if r.err != nil || r.cached || r.e.restored {
		t.Fatalf("registration: cached=%v err=%v; want a fresh build", r.cached, r.err)
	}
	xs, _, err := s.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Workers: 2})
	if _, _, err := fresh.Register(ctx, g, "t"); err != nil {
		t.Fatal(err)
	}
	xRef, _, err := fresh.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwise(t, "solve after the retried registration", xs[0], xRef[0])
	if got := s.builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
}
