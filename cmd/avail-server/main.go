// Command avail-server exposes the availability modeling engine over
// HTTP: POST model documents (flat or hierarchical) and GET solved JSAS
// configurations as JSON. See internal/httpapi for the endpoints.
//
// Usage:
//
//	avail-server [-addr :8080] [-pprof] [-max-inflight N] [-shutdown-timeout 10s]
//	             [-job-workers N] [-job-queue N] [-cache-size N]
//	             [-job-keep N] [-job-ttl 1h]
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -shutdown-timeout before exiting;
// connections still open at the deadline are force-closed.
//
// Endpoints:
//
//	GET  /healthz               (build identity + uptime)
//	GET  /metrics               (Prometheus text; ?format=json or
//	                             Accept: application/json for JSON)
//	GET  /v1/metrics/stream     (Server-Sent Events: snapshot frame, then
//	                             per-series deltas each ?interval= tick)
//	GET  /v1/runs               (in-flight/recent tracked requests with
//	                             progress and ETA)
//	POST /v1/jobs               (submit an async job; 202 + job ID)
//	GET  /v1/jobs               (job records, newest first)
//	GET  /v1/jobs/{id}          (poll status/result; cache + progress)
//	GET  /v1/jobs/{id}/stream   (Server-Sent Events: status frames each
//	                             ?interval= tick, then a done frame the
//	                             moment the job ends)
//	POST /v1/solve              (spec.Document)
//	POST /v1/solve-hierarchy    (spec.HierDocument)
//	GET  /v1/jsas?instances=4&pairs=4&spares=2
//	GET  /v1/jsas/uncertainty?instances=2&pairs=2&samples=1000
//	GET  /v1/traces             (flight-recorder trace IDs)
//	GET  /v1/traces/{id}        (?format=chrome|timeline|jsonl)
//	GET  /debug/pprof/          (only with -pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "avail-server:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("avail-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")
	maxInflight := fs.Int("max-inflight", 0,
		"max concurrent solve requests before shedding with 429 (0 = unlimited)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"how long to drain in-flight requests after SIGINT/SIGTERM")
	jobWorkers := fs.Int("job-workers", 0,
		"async job worker goroutines (0 = GOMAXPROCS)")
	jobQueue := fs.Int("job-queue", jobs.DefaultQueueDepth,
		"async job queue depth before submissions shed with 429")
	cacheSize := fs.Int("cache-size", jobs.DefaultCacheSize,
		"async job result cache entries (0 disables caching)")
	jobKeep := fs.Int("job-keep", jobs.DefaultKeepDone,
		"finished job records retained for polling")
	jobTTL := fs.Duration("job-ttl", time.Hour,
		"how long finished job records stay pollable (0 = count cap only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag's 0 means "no cache"; the engine spells that -1 (its zero
	// value selects the default size so handler-built engines get a cache).
	cs := *cacheSize
	if cs == 0 {
		cs = -1
	}
	engine := jobs.New(jobs.Config{
		Workers:    *jobWorkers,
		QueueDepth: *jobQueue,
		CacheSize:  cs,
		KeepDone:   *jobKeep,
		TTL:        *jobTTL,
		Registry:   httpapi.RunRegistry(),
	})
	defer engine.Close()
	srv := &http.Server{
		Handler: httpapi.NewHandler(httpapi.Options{
			PProf:       *withPprof,
			MaxInflight: *maxInflight,
			Jobs:        engine,
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("avail-server listening on %s", ln.Addr())
	return serve(ctx, srv, ln, *shutdownTimeout)
}

// serve runs srv on ln until ctx is canceled, then drains: the listener
// closes immediately (no new connections), in-flight requests get up to
// timeout to finish, and anything still open at the deadline is
// force-closed. A graceful drain returns nil — shutdown on signal is the
// intended exit, not an error.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, timeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	log.Printf("avail-server: shutting down, draining in-flight requests (up to %v)", timeout)
	sctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// The drain deadline passed with requests still running: close
		// their connections (canceling the request contexts, which aborts
		// the solves) rather than hang forever.
		_ = srv.Close()
		return fmt.Errorf("drain timed out after %v: %w", timeout, err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
