// Command tempo-bench regenerates the paper's evaluation figures.
//
// Simulations fan out across a worker pool (-parallel, default
// GOMAXPROCS) through the internal/runner engine; results land in a
// persistent cache when -cache-dir is set, so interrupted sweeps
// resume and -figure subsets reuse completed runs. The run ends with
// total wall-clock, executed/cached simulation counts, and — when a
// cache or -runs log is configured — a machine-readable runs.jsonl.
//
// Usage:
//
//	tempo-bench                       # every figure, full scale
//	tempo-bench -scale quick          # fast pass
//	tempo-bench -figure fig10,fig13   # a subset
//	tempo-bench -figure mech01 -mech tempo,victima  # restrict the mechanism zoo
//	tempo-bench -parallel 8           # worker count (default GOMAXPROCS)
//	tempo-bench -cache-dir .tempo     # persist results; re-runs skip sims
//	tempo-bench -timeout 30m          # abandon any single sim after 30m
//	tempo-bench -runs runs.jsonl      # per-job telemetry log
//	tempo-bench -o results.txt        # also write a report file
//	tempo-bench -csv out/             # one CSV per figure
//	tempo-bench -http :8080           # live sweep introspection
//	tempo-bench -v                    # log every simulation run
//
// -extras adds the ablation studies (abl01..abl04) to the figure set,
// -claims evaluates the paper's qualitative claims after the figures,
// and -compare writes a paper-vs-measured markdown table. -mech
// restricts the mech01 mechanism-zoo figure to a comma-separated
// subset of the registered translation mechanisms (MECHANISMS.md);
// unset runs all of them. -cpuprofile and -memprofile profile the
// sweep process itself.
//
// With -stats-interval N every *executed* simulation streams an
// interval-stats JSONL time series (OBSERVABILITY.md) into
// -obs-dir/<confighash>.jsonl; the hash is the same ConfigKey that
// names the persistent cache entry and fills the "hash" field of each
// runs.jsonl record, so series and results join on it. Cache hits do
// not re-execute and therefore produce no series file.
//
// With -http the sweep serves live introspection while it runs:
// /metrics is a Prometheus exposition of TEMPO counters accumulated
// across completed simulations plus pool progress gauges, /runs is the
// batch progress JSON, /events streams runs.jsonl records (and, with
// -stats-interval, per-simulation interval lines) as SSE, and
// /debug/pprof profiles the sweep itself.
//
// With -submit http://host:port simulations are not run locally at
// all: every job in the sweep is submitted to that tempo-serve
// instance (SERVICE.md) and results come back from its fleet-wide
// queue and shared persistent cache. -tenant names this sweep in the
// server's per-tenant quota accounting. The local execution flags
// (-parallel, -cache-dir, -timeout, -runs, -stats-interval, -obs-dir,
// -http) are ignored in submit mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	tempo "repro"
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/obsv/serve"
	"repro/internal/runner"
	"repro/internal/service/client"
	"repro/internal/translation"
)

func main() {
	var (
		scaleName = flag.String("scale", "full", "experiment scale: quick or full")
		figures   = flag.String("figure", "", "comma-separated figure ids (default: all)")
		out       = flag.String("o", "", "also write the reports to this file")
		csvDir    = flag.String("csv", "", "also write one CSV per figure into this directory")
		verbose   = flag.Bool("v", false, "log every simulation run")
		claims    = flag.Bool("claims", false, "after the figures, evaluate the paper's qualitative claims")
		extras    = flag.Bool("extras", false, "also run the ablation studies (abl01..abl04)")
		compare   = flag.String("compare", "", "write a paper-vs-measured markdown table to this file")
		mechList  = flag.String("mech", "", "comma-separated translation mechanisms for the mech01 zoo (default: all registered)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker count")
		cacheDir  = flag.String("cache-dir", "", "persistent result cache directory (empty: in-memory only)")
		timeout   = flag.Duration("timeout", 0, "per-simulation timeout (0: none)")
		runsLog   = flag.String("runs", "", "write per-job runs.jsonl here (default: <cache-dir>/runs.jsonl)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		statsInt  = flag.Uint64("stats-interval", 0, "per-simulation interval stats every N records (0 = off)")
		obsDir    = flag.String("obs-dir", "tempo-obs", "directory for per-simulation interval-stats JSONL")
		httpAddr  = flag.String("http", "", "serve live sweep introspection (/metrics, /runs, /events, /debug/pprof) on this address")
		submitURL = flag.String("submit", "", "submit every simulation to this tempo-serve base URL instead of running locally")
		tenant    = flag.String("tenant", "", "tenant name for -submit quota accounting (default: server default)")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fatal("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("memprofile: %v", err)
			}
		}()
	}

	var scale tempo.Scale
	switch *scaleName {
	case "quick":
		scale = tempo.QuickScale()
	case "full":
		scale = tempo.FullScale()
	default:
		fatal("unknown scale %q (want quick or full)", *scaleName)
	}

	var selected []experiments.Figure
	if *figures == "" {
		selected = experiments.All()
		if *extras {
			selected = append(selected, experiments.Extras()...)
		}
	} else {
		for _, id := range strings.Split(*figures, ",") {
			f, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fatal("unknown figure %q", id)
			}
			selected = append(selected, f)
		}
	}

	// Assemble the execution engine: worker pool, persistent cache,
	// progress telemetry.
	popts := runner.Options{Parallelism: *parallel, Timeout: *timeout}
	if *cacheDir != "" {
		dc, err := runner.NewDiskCache(*cacheDir)
		if err != nil {
			fatal("%v", err)
		}
		popts.Cache = dc
		if *runsLog == "" {
			*runsLog = *cacheDir + "/runs.jsonl"
		}
	}
	// With -http, completed-simulation totals accumulate into a shared
	// registry (all-atomic counters, safe to snapshot from the server's
	// goroutines) and telemetry/interval lines fan out over SSE.
	var events *serve.Broadcaster
	var sweepReg *obsv.Registry
	if *httpAddr != "" {
		events = serve.NewBroadcaster()
		sweepReg = obsv.NewRegistry()
	}
	tel := &runner.Telemetry{}
	if *verbose {
		tel.Out = os.Stderr
	}
	if *runsLog != "" {
		f, err := os.OpenFile(*runsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("opening %s: %v", *runsLog, err)
		}
		defer f.Close()
		tel.JSONL = f
	}
	if events != nil {
		if tel.JSONL != nil {
			tel.JSONL = io.MultiWriter(tel.JSONL, events)
		} else {
			tel.JSONL = events
		}
	}
	popts.Telemetry = tel
	if *statsInt > 0 {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fatal("obs-dir: %v", err)
		}
	}
	if *statsInt > 0 || sweepReg != nil {
		popts.Exec = observedExec(*statsInt, *obsDir, events, sweepReg)
	}
	pool := runner.New(popts)
	if *httpAddr != "" {
		sweepReg.Gauge("bench/executed", pool.Executed)
		sweepReg.Gauge("bench/cache_hits", pool.CacheHits)
		sweepReg.Gauge("bench/cache_misses", pool.CacheMisses)
		sweepReg.Gauge("bench/failed", pool.Failed)
		srv := serve.New(serve.Options{
			Metrics:   sweepReg.Snapshot,
			Telemetry: tel,
			Events:    events,
			Meta: map[string]string{
				"binary": "tempo-bench",
				"scale":  scale.Name,
			},
		})
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fatal("http: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "introspection server on http://%s\n", addr)
	}

	// In -submit mode the sweep's simulations go to a tempo-serve
	// instance instead of the local pool (which stays idle; its flags
	// are ignored) — the service's queue applies quotas and its
	// persistent cache answers configs any tenant already ran.
	engine := tempo.Engine(pool)
	if *submitURL != "" {
		engine = &client.Client{Base: strings.TrimRight(*submitURL, "/"), Tenant: *tenant}
	}
	benchRunner := tempo.NewParallelRunner(scale, engine)
	if *mechList != "" {
		registered := translation.Names()
		for _, m := range strings.Split(*mechList, ",") {
			m = strings.TrimSpace(m)
			if !slices.Contains(registered, m) {
				fatal("unknown mechanism %q (registered: %s)", m, strings.Join(registered, ", "))
			}
			benchRunner.Mechs = append(benchRunner.Mechs, m)
		}
	}
	if *verbose {
		benchRunner.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "TEMPO evaluation — scale=%s\n\n", scale.Name)
	start := time.Now()
	for _, f := range selected {
		fmt.Fprintf(os.Stderr, "== %s: %s\n", f.ID, f.Title)
		t0 := time.Now()
		rep, err := benchRunner.RunFigure(f)
		if err != nil {
			fatal("%s: %v", f.ID, err)
		}
		fmt.Fprintf(os.Stderr, "   done in %v\n", time.Since(t0).Round(time.Millisecond))
		fmt.Println(rep)
		fmt.Fprintln(&report, rep)
		if *csvDir != "" {
			path := *csvDir + "/" + f.ID + ".csv"
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fatal("writing %s: %v", path, err)
			}
		}
	}
	if *compare != "" {
		fmt.Fprintln(os.Stderr, "== comparing against the paper's bands")
		table, err := experiments.ComparePaper(benchRunner)
		if err != nil {
			fatal("compare: %v", err)
		}
		if err := os.WriteFile(*compare, []byte(table), 0o644); err != nil {
			fatal("writing %s: %v", *compare, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *compare)
	}
	if *claims {
		fmt.Fprintln(os.Stderr, "== evaluating paper claims")
		results, err := experiments.EvaluateClaims(benchRunner)
		if err != nil {
			fatal("claims: %v", err)
		}
		table := experiments.FormatClaims(results)
		fmt.Println(table)
		fmt.Fprintln(&report, table)
	}

	// End-of-run accounting: wall-clock, simulations executed vs
	// served from cache, and the serial-equivalent sim time the
	// workers absorbed.
	wall := time.Since(start).Round(time.Millisecond)
	if *submitURL != "" {
		fmt.Fprintf(os.Stderr, "total wall-clock %v, simulations ran remotely on %s\n", wall, *submitURL)
	} else {
		fmt.Fprintf(os.Stderr, "total wall-clock %v across %d workers\n", wall, *parallel)
		fmt.Fprintf(os.Stderr, "simulations: %d executed (%v sim time), cache %d hits / %d misses, %d failed\n",
			pool.Executed(), pool.SimWall().Round(time.Millisecond),
			pool.CacheHits(), pool.CacheMisses(), pool.Failed())
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "cache: %s\n", *cacheDir)
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fatal("writing %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// observedExec returns a pool executor that attaches an interval-stats
// observer to each simulation it actually runs (every > 0), streaming
// the epoch series to <dir>/<confighash>.jsonl and, when a broadcaster
// is attached, over SSE. Completed totals accumulate into reg (the
// sweep-wide /metrics view). Workers run it concurrently; each call
// builds its own observer, so only the atomic registry is shared.
func observedExec(every uint64, dir string, bc *serve.Broadcaster, reg *obsv.Registry) func(tempo.Config) (*tempo.Result, error) {
	return func(cfg tempo.Config) (*tempo.Result, error) {
		run := func() (*tempo.Result, error) {
			if every == 0 {
				return tempo.Run(cfg)
			}
			key, err := tempo.ConfigKey(cfg)
			if err != nil {
				return nil, err
			}
			f, err := os.Create(filepath.Join(dir, key+".jsonl"))
			if err != nil {
				return nil, err
			}
			defer f.Close()
			sink := io.Writer(f)
			if bc != nil {
				sink = io.MultiWriter(f, bc)
			}
			s, err := tempo.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			s.Attach(tempo.NewObserver(tempo.ObserverOptions{
				IntervalEvery: every, IntervalSink: sink,
			}))
			return s.Run()
		}
		res, err := run()
		if err == nil && reg != nil {
			obsv.AddStats(reg, &res.Total)
		}
		return res, err
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tempo-bench: "+format+"\n", args...)
	os.Exit(1)
}
