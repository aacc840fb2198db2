// Command sddserver is the long-lived solver service: it keeps a bounded
// LRU cache of built preconditioner chains keyed by a canonical graph hash
// and serves single and batched solves over HTTP/JSON, so one expensive
// near-linear-work chain construction is amortized over arbitrarily many
// cheap right-hand-side solves — the paper's core economics, made into a
// server.
//
// API (see internal/service):
//
//	POST /graphs                    {"spec":"grid2d:64x64","seed":1} or {"edgelist":"0 1 1\n..."}
//	GET  /graphs                    cached graph ids, MRU first
//	POST /graphs/{id}/solve         {"b":[...]} or {"batch":[[...],[...]]}, optional "eps"
//	POST /graphs/{id}/solve/stream  ndjson: one JSON array per line in, one
//	                                {"row","x","iterations","converged","residual"}
//	                                line per solution out; ?eps= sets the target.
//	                                Arbitrarily large batches stream through
//	                                -stream-window-sized admitted solve windows.
//	GET  /graphs/{id}/stats         chain shape, build time, cache/solve counters,
//	                                per-stage solve timings
//	GET  /healthz                   service-wide health and cache statistics
//	GET  /metrics                   Prometheus text exposition: solve/stream/cache
//	                                counters, latency histograms end-to-end and per
//	                                stage, Go runtime stats
//
// Observability: every request gets an X-Request-ID echoed in error
// envelopes and structured logs (-log-json switches them to JSON lines);
// POST .../solve?debug=timings returns the request's stage trace; and
// -pprof-addr serves net/http/pprof on a separate listener.
//
// With -chain-dir (local directory) or -chain-s3-endpoint/-chain-s3-bucket
// (any S3-compatible object store, e.g. minio) the server persists built
// chains as content-addressed snapshots (internal/chainio) and restores
// them on boot, on cache miss, and on demand when a solve arrives for a
// graph another node built against the same store; SIGINT/SIGTERM drain
// in-flight requests and run a final snapshot pass before exit. In a
// multi-node deployment give each server a -node-id and front the fleet
// with cmd/sddrouter.
//
// Example:
//
//	sddserver -addr :8080 -max-graphs 32 -max-inflight 8 -chain-dir /var/lib/sddserver/chains
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/service"
	"parlap/internal/solver"
)

var (
	addr          = flag.String("addr", ":8080", "listen address")
	maxGraphs     = flag.Int("max-graphs", 16, "chain-cache capacity in entries (LRU eviction beyond it)")
	maxCacheBytes = flag.Int64("max-cache-bytes", 2<<30, "chain-cache capacity in estimated bytes (evicts alongside -max-graphs)")
	maxInflight   = flag.Int("max-inflight", 4, "concurrently executing solves; more requests queue")
	maxPerGraph   = flag.Int("max-inflight-per-graph", 0, "solve slots one graph may hold while others wait (0 = max-inflight/2)")
	workers       = flag.Int("workers", 0, "global worker budget split across solve slots (0 = GOMAXPROCS)")
	defaultEps    = flag.Float64("eps", 1e-8, "default relative residual target when a request omits eps")
	maxBatch      = flag.Int("max-batch", 64, "maximum right-hand sides per solve request")
	streamWindow  = flag.Int("stream-window", 0, "RHS rows per admitted window of a streaming solve (0 = max-batch)")
	maxRowBytes   = flag.Int("max-stream-row-bytes", 0, "byte cap for one ndjson RHS row (0 = 16 MiB)")
	maxBuilds     = flag.Int("max-builds", 2, "concurrently executing chain builds; more registrations queue")
	maxVerts      = flag.Int("max-vertices", 2_000_000, "reject graphs larger than this many vertices")
	maxEdges      = flag.Int("max-edges", 16_000_000, "reject graphs larger than this many edges")
	kappa         = flag.Float64("kappa", 0, "override the sparsifier's condition target κ (0 = default)")
	kappaGrowth   = flag.Float64("kappa-growth", 0, "override the per-level κ growth factor (0 = default 2)")
	maxLevels     = flag.Int("max-levels", 0, "override the chain length cap (0 = default 8)")
	chainDir      = flag.String("chain-dir", "", "directory for persisted chain snapshots; enables restore-on-boot/miss and snapshot-on-shutdown (empty = no persistence)")
	s3Endpoint    = flag.String("chain-s3-endpoint", "", "S3-compatible endpoint URL for chain snapshots (e.g. http://minio:9000); mutually exclusive with -chain-dir")
	s3Bucket      = flag.String("chain-s3-bucket", "", "S3 bucket holding chain snapshots (required with -chain-s3-endpoint)")
	s3Region      = flag.String("chain-s3-region", "", "S3 signing region (empty = us-east-1)")
	s3Prefix      = flag.String("chain-s3-prefix", "", "key prefix for snapshot objects in the bucket")
	s3AccessKey   = flag.String("chain-s3-access-key", "", "S3 access key id (empty = $AWS_ACCESS_KEY_ID)")
	s3SecretKey   = flag.String("chain-s3-secret-key", "", "S3 secret access key (empty = $AWS_SECRET_ACCESS_KEY)")
	snapOnBuild   = flag.Bool("snapshot-on-build", true, "with a snapshot store: also persist each chain right after it builds (write-behind), not only at shutdown")
	nodeID        = flag.String("node-id", "", "shard name reported in /healthz for multi-node deployments (empty = unnamed)")
	drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests and the shutdown snapshot pass")
	pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it off any public interface)")
	logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of logfmt text")
)

func main() {
	flag.Parse()
	// Structured logging: one handler for the binary's own lifecycle events
	// and the service's per-request/build/snapshot logs alike, so a log
	// pipeline sees a single stream keyed by request_id.
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	// Chain-schedule knobs thread through service.Config so operators can
	// tune cached chains (κ schedule and depth) without rebuilding the
	// binary; the calibrated result is visible per graph in
	// GET /graphs/{id}/stats under "schedule".
	chain := solver.DefaultChainParams()
	if *kappa > 0 {
		chain.Sparsify.Kappa = *kappa
	}
	if *kappaGrowth > 0 {
		chain.KappaGrowth = *kappaGrowth
	}
	if *maxLevels > 0 {
		chain.MaxLevels = *maxLevels
	}
	var store chainio.BlobStore
	storeDesc := ""
	switch {
	case *chainDir != "" && *s3Endpoint != "":
		fmt.Fprintln(os.Stderr, "set at most one of -chain-dir and -chain-s3-endpoint")
		os.Exit(1)
	case *chainDir != "":
		ds, err := chainio.NewDirStore(*chainDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store, storeDesc = ds, *chainDir
	case *s3Endpoint != "":
		ak, sk := *s3AccessKey, *s3SecretKey
		if ak == "" {
			ak = os.Getenv("AWS_ACCESS_KEY_ID")
		}
		if sk == "" {
			sk = os.Getenv("AWS_SECRET_ACCESS_KEY")
		}
		s3, err := chainio.NewS3Store(chainio.S3Config{
			Endpoint:  *s3Endpoint,
			Region:    *s3Region,
			Bucket:    *s3Bucket,
			Prefix:    *s3Prefix,
			AccessKey: ak,
			SecretKey: sk,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store, storeDesc = s3, *s3Endpoint+"/"+*s3Bucket
	}
	srv := service.New(service.Config{
		MaxGraphs:           *maxGraphs,
		MaxCacheBytes:       *maxCacheBytes,
		MaxInflight:         *maxInflight,
		MaxInflightPerGraph: *maxPerGraph,
		Workers:             *workers,
		DefaultEps:          *defaultEps,
		MaxBatch:            *maxBatch,
		StreamWindow:        *streamWindow,
		MaxStreamRowBytes:   *maxRowBytes,
		MaxConcurrentBuilds: *maxBuilds,
		MaxGraphVertices:    *maxVerts,
		MaxGraphEdges:       *maxEdges,
		Chain:               &chain,
		Snapshots:           store,
		SnapshotOnBuild:     *snapOnBuild,
		Logger:              logger,
		NodeID:              *nodeID,
	})
	if store != nil {
		// Warm start: load every persisted chain before accepting traffic,
		// so the first solve after a restart is a cache hit, not a rebuild.
		restored, err := srv.RestoreAll(context.Background())
		if err != nil {
			logger.Warn("snapshot_restore_failed", "err", err)
		}
		logger.Info("snapshot_restore", "restored", restored, "store", storeDesc)
	}
	if *pprofAddr != "" {
		// Profiling endpoints on their own listener (own mux, never the
		// default one), so /debug/pprof can stay bound to localhost while the
		// API listens publicly.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof_listening", "addr", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof_server_failed", "err", err)
			}
		}()
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	logger.Info("listening",
		"addr", *addr,
		"max_graphs", *maxGraphs,
		"solve_slots", *maxInflight,
		"workers", w,
	)
	// No write timeout: streaming solves legitimately hold a response open
	// for as long as the client keeps sending rows. IdleTimeout is what
	// actually bounds idle keep-alive connections — without it every client
	// that forgets to close leaks a connection (and its buffers) forever.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections, drains
	// in-flight solves, then runs the shutdown snapshot pass — so a routine
	// redeploy never truncates a response mid-stream or loses a built chain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately via the default handler
	logger.Info("draining", "timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		logger.Warn("drain_failed", "err", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("snapshot_pass_failed", "err", err)
	}
	logger.Info("shut_down_cleanly")
}
