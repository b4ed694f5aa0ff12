// Command tempo-serve runs the TEMPO simulation service: a job
// coordinator plus worker fleet behind the introspection HTTP plane,
// so many clients (and many machines' worth of sweeps, via
// `tempo-bench -submit`) share one queue and one persistent result
// cache. SERVICE.md is the full API reference.
//
// Clients POST a simulation config — or a named figure sweep — to
// /jobs and get a job ID; GET /jobs/{id} returns status and, once
// completed, the full result JSON; GET /jobs/{id}/events streams the
// job's lifecycle as Server-Sent Events; DELETE /jobs/{id} cancels;
// GET /queue is the admin view of queue depth, tenants and counters.
// The introspection endpoints (/metrics, /runs, /events,
// /debug/pprof) serve alongside. Duplicate submissions of the same
// config deduplicate onto one job, and configs already simulated are
// answered from the content-addressed cache without re-running.
//
// Usage:
//
//	tempo-serve                          # serve on 127.0.0.1:8347
//	tempo-serve -http :9000              # another address (":0" picks a port)
//	tempo-serve -cache-dir .tempo-serve  # result cache + journal directory
//	tempo-serve -workers 8               # simulation worker count (default GOMAXPROCS)
//	tempo-serve -queue-depth 512         # queued-job bound (backpressure above it)
//	tempo-serve -tenant-quota 16         # max live (queued+running) jobs per tenant (0 = unlimited)
//	tempo-serve -retry-after 5s          # backoff hint on 429 rejections
//	tempo-serve -timeout 30m             # abandon any single simulation after 30m (0 = none)
//	tempo-serve -v                       # log every simulation run to stderr
//
// State lives under -cache-dir: simulation results in the
// content-addressed gob cache shared with tempo-bench, per-job
// telemetry appended to <cache-dir>/runs.jsonl, and the job journal
// at <cache-dir>/queue.jsonl (override with -journal). On restart the
// journal is replayed: unfinished jobs re-queue, completed ones keep
// answering from the cache. The process drains cleanly on SIGINT or
// SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/serve"
	"repro/internal/runner"
	"repro/internal/service"
)

func main() {
	var (
		httpAddr    = flag.String("http", "127.0.0.1:8347", "serve the job API and introspection plane on this address")
		cacheDir    = flag.String("cache-dir", ".tempo-serve", "persistent result cache + journal directory")
		journalPath = flag.String("journal", "", "job journal path (default <cache-dir>/queue.jsonl)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker count")
		queueDepth  = flag.Int("queue-depth", 256, "max queued jobs before submissions get 429")
		tenantQuota = flag.Int("tenant-quota", 0, "max live (queued+running) jobs per tenant (0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint returned with 429 rejections")
		timeout     = flag.Duration("timeout", 0, "per-simulation timeout (0: none)")
		verbose     = flag.Bool("v", false, "log every simulation run to stderr")
	)
	flag.Parse()

	if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
		fatal("cache-dir: %v", err)
	}
	cache, err := runner.NewDiskCache(*cacheDir)
	if err != nil {
		fatal("%v", err)
	}
	if *journalPath == "" {
		*journalPath = *cacheDir + "/queue.jsonl"
	}

	events := serve.NewBroadcaster()
	reg := obsv.NewRegistry()

	tel := &runner.Telemetry{}
	if *verbose {
		tel.Out = os.Stderr
	}
	runsLog, err := os.OpenFile(*cacheDir+"/runs.jsonl", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal("runs log: %v", err)
	}
	defer runsLog.Close()
	tel.JSONL = io.MultiWriter(runsLog, events)

	pool := runner.New(runner.Options{
		Parallelism: *workers,
		Timeout:     *timeout,
		Cache:       cache,
		Telemetry:   tel,
	})
	reg.Gauge("bench/executed", pool.Executed)
	reg.Gauge("bench/cache_hits", pool.CacheHits)
	reg.Gauge("bench/cache_misses", pool.CacheMisses)
	reg.Gauge("bench/failed", pool.Failed)
	reg.Gauge("bench/cache_schema_mismatches", pool.CacheSchemaMismatches)

	co, err := service.New(service.Options{
		Pool:        pool,
		Cache:       cache,
		QueueDepth:  *queueDepth,
		TenantQuota: *tenantQuota,
		Workers:     *workers,
		JournalPath: *journalPath,
		Registry:    reg,
		Events:      events,
		RetryAfter:  *retryAfter,
	})
	if err != nil {
		fatal("%v", err)
	}

	srv := serve.New(serve.Options{
		Metrics:   reg.Snapshot,
		Telemetry: tel,
		Events:    events,
		Meta: map[string]string{
			"binary":    "tempo-serve",
			"cache-dir": *cacheDir,
			"workers":   fmt.Sprint(*workers),
		},
	})
	service.NewAPI(co).Register(srv)
	addr, err := srv.Start(*httpAddr)
	if err != nil {
		fatal("http: %v", err)
	}
	fmt.Fprintf(os.Stderr, "tempo-serve listening on http://%s\n", addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Fprintln(os.Stderr, "tempo-serve: draining")
	srv.Close()
	if err := co.Close(); err != nil {
		fatal("shutdown: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tempo-serve: "+format+"\n", args...)
	os.Exit(1)
}
