package service

import (
	"context"
	"errors"
	"fmt"

	"parlap/internal/chainio"
	"parlap/internal/solver"
)

// Chain persistence: the serving layer's half of internal/chainio. Built
// chains are the server's only expensive state — everything else (HTTP,
// admission, the cache index) is cheap to rebuild — so persisting them is
// what turns a process restart from a rebuild stampede into a warm start.
// Two paths feed the store: write-behind after a fresh build, and the bulk
// shutdown pass (SnapshotAll, via Shutdown). One path drains it: the
// server's load path (Server.load), which tries the store before building
// whenever a graph enters the cache — on a registration, on a solve or
// stats read for a graph this process has not loaded (restore on demand),
// and for every blob in the boot pass (RestoreAll).

// tryRestore attempts to restore graph id's chain from the snapshot store.
// It returns (nil, false) whenever a fresh build is required: no store
// configured, blob absent, or blob unusable (corrupt, truncated, wrong
// version, wrong graph, or built under chain parameters other than this
// server's — every such failure counts as a miss and an error, never an
// outage).
func (s *Server) tryRestore(id string) (*solver.Solver, bool) {
	if s.cfg.Snapshots == nil {
		return nil, false
	}
	data, err := s.cfg.Snapshots.Get(id)
	if err != nil {
		s.snapMisses.Add(1)
		if !errors.Is(err, chainio.ErrNotFound) {
			s.snapErrors.Add(1)
		}
		return nil, false
	}
	sv, err := chainio.Decode(data, id, solver.Options{Workers: s.cfg.Workers})
	if err == nil {
		// Blobs are keyed by graph alone, so one written under other knobs
		// (say a run with a different -max-levels) must not be served here.
		// Sparsify.Workers is execution policy and is never persisted.
		got, want := sv.Chain.Params, s.chain
		got.Sparsify.Workers, want.Sparsify.Workers = 0, 0
		if got != want {
			err = fmt.Errorf("service: snapshot built with chain parameters %+v, want %+v", got, want)
		}
	}
	if err != nil {
		s.log.Warn("snapshot_unusable", "graph", id, "err", err)
		s.snapMisses.Add(1)
		s.snapErrors.Add(1)
		return nil, false
	}
	s.snapHits.Add(1)
	return sv, true
}

// snapshotOne encodes and persists one built chain, updating the counters.
func (s *Server) snapshotOne(id string, sv *solver.Solver) error {
	data, err := chainio.Encode(sv, id)
	if err == nil {
		err = s.cfg.Snapshots.Put(id, data)
	}
	if err != nil {
		s.snapErrors.Add(1)
		return fmt.Errorf("service: snapshotting %s: %w", id, err)
	}
	s.snapWrites.Add(1)
	return nil
}

// SnapshotAll persists every finished cached chain through the configured
// store and returns the number written. Put is idempotent per content
// address, so overlapping with write-behind writes is harmless. ctx bounds
// the pass between entries; the first error is returned after attempting
// the rest.
func (s *Server) SnapshotAll(ctx context.Context) (int, error) {
	if s.cfg.Snapshots == nil {
		return 0, nil
	}
	type target struct {
		id string
		sv *solver.Solver
	}
	s.mu.Lock()
	targets := make([]target, 0, len(s.entries))
	for id, e := range s.entries {
		select {
		case <-e.built:
		default:
			continue // still building; its own write-behind will cover it
		}
		if e.buildErr == nil && e.solver != nil {
			targets = append(targets, target{id, e.solver})
		}
	}
	s.mu.Unlock()
	var firstErr error
	written := 0
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if err := s.snapshotOne(t.id, t.sv); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written++
	}
	return written, firstErr
}

// RestoreAll loads every snapshot in the configured store into the cache —
// the boot-time warm start — through the same load path a registration or
// solve takes, so each restore counts as a snapshot hit and a build.
// Graphs already cached are skipped; unusable blobs are skipped (counted as
// errors) and left for a later restore or a fresh build to supersede. The
// cache is trimmed to its usual bounds after each restore, so a store
// holding more chains than MaxGraphs/MaxCacheBytes warm-starts the most
// recently restored ones.
func (s *Server) RestoreAll(ctx context.Context) (int, error) {
	if s.cfg.Snapshots == nil {
		return 0, nil
	}
	ids, err := s.cfg.Snapshots.List()
	if err != nil {
		return 0, fmt.Errorf("service: listing snapshots: %w", err)
	}
	var firstErr error
	restored := 0
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		s.mu.Lock()
		_, exists := s.entries[id]
		s.mu.Unlock()
		if exists {
			continue
		}
		e, found, err := s.load(ctx, id, nil, "snapshot")
		if err != nil {
			var nf *NotFoundError
			if errors.As(err, &nf) {
				err = fmt.Errorf("service: snapshot %s unusable; skipped", id)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.mu.Lock()
		s.evictLocked(nil)
		s.mu.Unlock()
		s.release(e)
		if !found { // else a concurrent caller loaded it; keep its entry
			restored++
		}
	}
	return restored, firstErr
}

// Shutdown flushes chain persistence: it waits for in-flight write-behind
// snapshot writes, then runs a SnapshotAll pass so every cached chain —
// including ones built before snapshotting was enabled or restored and
// since re-registered — survives the restart. Call it after the HTTP
// server has drained so no new builds race the pass.
func (s *Server) Shutdown(ctx context.Context) error {
	s.snapWG.Wait()
	_, err := s.SnapshotAll(ctx)
	return err
}
