package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"parlap/internal/chainio"
	"parlap/internal/gen"
	"parlap/internal/solver"
)

// Service-level chain persistence tests: warm restarts restore instead of
// rebuild and solve bit-identically; corrupt snapshots degrade to a fresh
// build, never an outage.

func snapshotStore(t *testing.T) *chainio.DirStore {
	t.Helper()
	ds, err := chainio.NewDirStore(filepath.Join(t.TempDir(), "chains"))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestWarmRestartRestoresBitwise(t *testing.T) {
	ctx := context.Background()
	ds := snapshotStore(t)
	cfg := Config{Workers: 2, Snapshots: ds, SnapshotOnBuild: true}

	// First process lifetime: build, solve, shut down.
	s1 := New(cfg)
	g := gen.Grid2D(10, 10)
	id := GraphID(g)
	if _, cached, err := s1.Register(ctx, g, "t"); err != nil || cached {
		t.Fatalf("register: cached=%v err=%v", cached, err)
	}
	bs := [][]float64{meanFreeRHS(g.N, 5), meanFreeRHS(g.N, 6)}
	xRef, _, err := s1.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown snapshot pass: %v", err)
	}
	ids, err := ds.List()
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("store holds %v, %v; want [%s]", ids, err, id)
	}

	// Second process lifetime: restore on boot, hit the cache, solve the
	// same right-hand sides bit-identically.
	s2 := New(cfg)
	restored, err := s2.RestoreAll(ctx)
	if err != nil || restored != 1 {
		t.Fatalf("RestoreAll = %d, %v; want 1, nil", restored, err)
	}
	if _, cached, err := s2.Register(ctx, g, "t"); err != nil || !cached {
		t.Fatalf("post-restore register: cached=%v err=%v; want cache hit", cached, err)
	}
	xs, _, err := s2.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range xRef {
		for i := range xRef[c] {
			if math.Float64bits(xs[c][i]) != math.Float64bits(xRef[c][i]) {
				t.Fatalf("restored solve differs at col %d entry %d", c, i)
			}
		}
	}
	if h := s2.Health(); h.SnapshotHits < 1 {
		t.Fatalf("snapshot_hits = %d after a boot restore", h.SnapshotHits)
	}
	st, err := s2.Stats(ctx, id)
	if err != nil || !st.Restored {
		t.Fatalf("stats restored_from_snapshot=%v err=%v", st != nil && st.Restored, err)
	}
	// A restore builds nothing, so it has no build phases to report.
	if st.Build != nil {
		t.Fatalf("restored chain reports build timings %+v", st.Build)
	}
}

func TestRegisterRestoresOnMiss(t *testing.T) {
	ctx := context.Background()
	ds := snapshotStore(t)
	cfg := Config{Workers: 2, Snapshots: ds, SnapshotOnBuild: true}
	g := gen.Grid2D(7, 9)
	id := GraphID(g)

	s1 := New(cfg)
	if _, _, err := s1.Register(ctx, g, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// No RestoreAll: the registration itself finds the snapshot.
	s2 := New(cfg)
	e, cached, err := s2.Register(ctx, g, "t")
	if err != nil || cached {
		t.Fatalf("register: cached=%v err=%v", cached, err)
	}
	if !e.restored {
		t.Fatal("registration built fresh despite a usable snapshot")
	}
	h := s2.Health()
	if h.SnapshotHits != 1 || h.SnapshotErrors != 0 {
		t.Fatalf("hits=%d errors=%d; want 1, 0", h.SnapshotHits, h.SnapshotErrors)
	}
	if _, _, err := s2.Solve(ctx, id, [][]float64{meanFreeRHS(g.N, 1)}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFallsBackToBuild covers unusable blobs: one truncated
// with a flipped byte, and ones from older format versions (version bytes 4,
// 5 and 6, resealed so only the version check can reject them). Each must be
// skipped by boot restore and rebuilt by the first registration, and the
// rebuilt chain must solve bit-identically to a fresh build.
func TestCorruptSnapshotFallsBackToBuild(t *testing.T) {
	g := gen.Grid2D(6, 8)
	id := GraphID(g)
	bs := [][]float64{meanFreeRHS(g.N, 2)}
	ctx := context.Background()
	fresh := New(Config{Workers: 2})
	if _, _, err := fresh.Register(ctx, g, "t"); err != nil {
		t.Fatal(err)
	}
	xRef, _, err := fresh.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		want    error
		corrupt func(data []byte) []byte
	}{
		{"truncated-flipped", chainio.ErrCorrupt, func(data []byte) []byte {
			mut := data[:len(data)-7]
			mut[len(mut)/2] ^= 0x10
			return mut
		}},
		{"older-version-resealed", chainio.ErrVersion, resealedVersion(4)},
		{"v5-resealed", chainio.ErrVersion, resealedVersion(5)},
		{"v6-resealed", chainio.ErrVersion, resealedVersion(6)},
		{"v7-resealed", chainio.ErrVersion, resealedVersion(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := snapshotStore(t)
			cfg := Config{Workers: 2, Snapshots: ds, SnapshotOnBuild: true}
			s1 := New(cfg)
			if _, _, err := s1.Register(ctx, g, "t"); err != nil {
				t.Fatal(err)
			}
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}

			// Replace the persisted blob with the unusable one.
			data, err := ds.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			mut := tc.corrupt(data)
			if _, err := chainio.Decode(mut, id, solver.Options{Workers: 1}); !errors.Is(err, tc.want) {
				t.Fatalf("decode of the replaced blob: got %v, want %v", err, tc.want)
			}
			if err := ds.Put(id, mut); err != nil {
				t.Fatal(err)
			}

			// Boot restore skips the unusable blob without dying.
			s2 := New(cfg)
			restored, err := s2.RestoreAll(ctx)
			if restored != 0 || err == nil {
				t.Fatalf("RestoreAll = %d, %v; want 0 and a reported skip", restored, err)
			}
			// Registration falls back to a fresh build and re-persists.
			e, cached, err := s2.Register(ctx, g, "t")
			if err != nil || cached {
				t.Fatalf("register after unusable snapshot: cached=%v err=%v", cached, err)
			}
			if e.restored {
				t.Fatal("unusable snapshot claimed to restore")
			}
			h := s2.Health()
			if h.SnapshotErrors < 1 || h.SnapshotMisses < 1 {
				t.Fatalf("errors=%d misses=%d; want both >= 1", h.SnapshotErrors, h.SnapshotMisses)
			}
			xs, _, err := s2.Solve(ctx, id, bs, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xRef[0] {
				if math.Float64bits(xs[0][i]) != math.Float64bits(xRef[0][i]) {
					t.Fatalf("rebuilt solve differs from a fresh build at entry %d", i)
				}
			}
			s2.snapWG.Wait() // write-behind of the fresh build
			fixed, err := ds.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if gotID, err := chainio.SnapshotID(fixed); err != nil || gotID != id {
				t.Fatalf("re-persisted blob id = %q, %v", gotID, err)
			}
			if bytes.Equal(fixed, mut) {
				t.Fatal("store still holds the unusable blob")
			}
		})
	}
}

// resealedVersion returns a corruption that rewrites a blob's format
// version to v and reseals the checksum, so only the version check can
// reject it.
func resealedVersion(v byte) func(data []byte) []byte {
	return func(data []byte) []byte {
		mut := append([]byte(nil), data...)
		mut[8] = v // low byte of the u32 version after the 8-byte magic
		sum := sha256.Sum256(mut[:len(mut)-sha256.Size])
		copy(mut[len(mut)-sha256.Size:], sum[:])
		return mut
	}
}

// TestSnapshotUnderOtherParamsIsRebuilt: snapshots are keyed by graph alone,
// so a blob built under other chain parameters (here a MaxLevels 1 chain)
// must not be served by a server restarted with different knobs. It counts
// as a miss plus an error, and the chain is rebuilt under the server's own
// parameters. A difference in Sparsify.Workers alone, which snapshots do not
// record, still restores.
func TestSnapshotUnderOtherParamsIsRebuilt(t *testing.T) {
	ctx := context.Background()
	g := gen.RandomRegular(600, 8, 1)
	id := GraphID(g)
	bs := [][]float64{meanFreeRHS(g.N, 3)}
	fresh := New(Config{Workers: 1})
	ef, _, err := fresh.Register(ctx, g, "t")
	if err != nil {
		t.Fatal(err)
	}
	if ef.levels < 2 {
		t.Fatalf("default chain has %d levels; the test needs MaxLevels 1 to differ", ef.levels)
	}
	xRef, _, err := fresh.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}

	ds := snapshotStore(t)
	shallow := solver.DefaultChainParams()
	shallow.MaxLevels = 1
	s1 := New(Config{Workers: 1, Snapshots: ds, SnapshotOnBuild: true, Chain: &shallow})
	if _, _, err := s1.Register(ctx, g, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, Snapshots: ds, SnapshotOnBuild: true})
	if restored, err := s2.RestoreAll(ctx); restored != 0 || err == nil {
		t.Fatalf("RestoreAll = %d, %v; want 0 and a reported skip", restored, err)
	}
	e, cached, err := s2.Register(ctx, g, "t")
	if err != nil || cached {
		t.Fatalf("register: cached=%v err=%v", cached, err)
	}
	if e.restored || e.levels != ef.levels {
		t.Fatalf("served restored=%v with %d levels; want a rebuild with %d", e.restored, e.levels, ef.levels)
	}
	if h := s2.Health(); h.SnapshotHits != 0 || h.SnapshotErrors < 2 || h.SnapshotMisses < 2 {
		t.Fatalf("hits=%d errors=%d misses=%d; want 0 hits and a miss plus an error per attempt",
			h.SnapshotHits, h.SnapshotErrors, h.SnapshotMisses)
	}
	xs, _, err := s2.Solve(ctx, id, bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xRef[0] {
		if math.Float64bits(xs[0][i]) != math.Float64bits(xRef[0][i]) {
			t.Fatalf("rebuilt solve differs from a fresh build at entry %d", i)
		}
	}
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The rebuild re-persisted a default chain; a server whose parameters
	// differ from it only in Sparsify.Workers restores it.
	workers := solver.DefaultChainParams()
	workers.Sparsify.Workers = 1
	s3 := New(Config{Workers: 1, Snapshots: ds, Chain: &workers})
	if restored, err := s3.RestoreAll(ctx); restored != 1 || err != nil {
		t.Fatalf("RestoreAll = %d, %v; want 1, nil", restored, err)
	}
}

func TestWrongKeySnapshotRejected(t *testing.T) {
	// A blob filed under the wrong content address (copied/renamed) must not
	// restore as that graph.
	ctx := context.Background()
	ds := snapshotStore(t)
	cfg := Config{Workers: 1, Snapshots: ds, SnapshotOnBuild: true}
	gA, gB := gen.Grid2D(5, 5), gen.Grid2D(4, 7)
	idA, idB := GraphID(gA), GraphID(gB)

	s1 := New(cfg)
	if _, _, err := s1.Register(ctx, gA, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	blobA, err := ds.Get(idA)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(idB, blobA); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(idA); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	e, _, err := s2.Register(ctx, gB, "t")
	if err != nil {
		t.Fatal(err)
	}
	s2.snapWG.Wait() // the fallback build's write-behind must not outlive the test dir
	if e.restored {
		t.Fatal("wrong-key snapshot restored as a different graph")
	}
	if h := s2.Health(); h.SnapshotErrors < 1 {
		t.Fatalf("snapshot_errors = %d; want >= 1", h.SnapshotErrors)
	}
	// The solve must be gB's, not gA's: dimensions differ, so a successful
	// solve of a gB-sized RHS proves the fallback built the right chain.
	if _, _, err := s2.Solve(ctx, idB, [][]float64{meanFreeRHS(gB.N, 3)}, 0); err != nil {
		t.Fatal(err)
	}
}
