// Command tempo-sim runs one simulator configuration and prints the
// statistics the paper's figures are built from.
//
// Usage:
//
//	tempo-sim -workload xsbench -records 200000 -tempo
//	tempo-sim -workload xsbench -cores 4 -shared-as -tempo -scheduler bliss
//	tempo-sim -workload spmv -imp -tempo -pagemode 4k
//
// Workload selection: -workload names a generator (-list prints them),
// -records sets trace records per core, -footprint-mb overrides the
// working-set size (0 = workload default), -seed the generator seed,
// and -trace replays a tempo-trace capture instead of a generator.
// Machine shape: -cores, -shared-as (threads of one address space),
// -scheduler (frfcfs or bliss), -row-policy (adaptive, open, closed),
// -sub-rows and -prefetch-sub-rows (sub-row organisation), -pagemode,
// and -memhog (fraction of memory pre-filled to fragment superpages).
// Mechanisms: -tempo enables the paper's prefetcher with -tempo-llc
// (LLC fill on/off) and -pt-wait (PT-row wait cycles); -imp enables
// the indirect prefetcher. -mech selects the translation mechanism
// (MECHANISMS.md): "tempo" (the default — the paper's translation
// path, bit-identical with not saying -mech at all) or a rival from
// the zoo ("victima", "revelator"). Rivals replace TEMPO rather than
// stack on it, so they reject -tempo; their per-mechanism counters
// are printed after the run.
//
// Observability (OBSERVABILITY.md):
//
//	tempo-sim -tempo -trace-events out.json -trace-from 1000 -trace-records 200
//	tempo-sim -tempo -stats-interval 10000 -stats-out epochs.jsonl
//	tempo-sim -tempo -records 5000000 -http :8080
//
// -trace-events writes a Chrome trace-event JSON loadable in Perfetto
// (capture window set by -trace-from/-trace-records, ring capacity by
// -trace-buf); -stats-interval streams one JSONL counter snapshot
// every N records to -stats-out; -http serves live introspection
// (/metrics Prometheus exposition, /events interval-stats SSE,
// /debug/pprof) while the run executes. -cpuprofile and -memprofile
// profile the simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	tempo "repro"
	"repro/internal/obsv/serve"
	"repro/internal/stats"
	"repro/internal/translation"
	"repro/internal/vm"
)

// options carries the parsed command line; buildConfig translates it
// into a simulator configuration (kept separate so it can be tested).
type options struct {
	workload  string
	tracePath string
	records   int
	footprint uint64 // MB
	cores     int
	sharedAS  bool
	tempoOn   bool
	llcPf     bool
	ptWait    uint64
	impOn     bool
	mech      string
	scheduler string
	rowPolicy string
	pageMode  string
	memhog    float64
	subRows   int
	pfSubRows int
	seed      int64
}

// buildConfig validates the options and assembles a run configuration.
func buildConfig(o options) (tempo.Config, error) {
	cfg := tempo.DefaultConfig(o.workload)
	cfg.Records = o.records
	cfg.Seed = o.seed
	cfg.Workloads = nil
	for i := 0; i < o.cores; i++ {
		cfg.Workloads = append(cfg.Workloads, tempo.WorkloadSpec{
			Name: o.workload, Footprint: o.footprint << 20, Seed: int64(i + 1),
			TracePath: o.tracePath,
		})
	}
	cfg.SharedAddressSpace = o.sharedAS
	if o.tempoOn {
		cfg.Tempo = tempo.DefaultTempo()
		cfg.Tempo.LLCPrefetch = o.llcPf
		cfg.Tempo.PTRowWait = o.ptWait
	}
	cfg.IMP = o.impOn
	switch o.mech {
	case "", "tempo":
		// The default path: leave Config.Mech empty so the run is
		// byte-identical (config hash included) with builds that predate
		// the mechanism seam. -tempo alone decides whether the tempo
		// mechanism actually prefetches.
		cfg.Mech = ""
	default:
		if !slices.Contains(translation.Names(), o.mech) {
			return cfg, fmt.Errorf("unknown mechanism %q (registered: %s)",
				o.mech, strings.Join(translation.Names(), ", "))
		}
		cfg.Mech = o.mech
	}
	switch o.scheduler {
	case "frfcfs":
		cfg.Scheduler = tempo.SchedFRFCFS
	case "bliss":
		cfg.Scheduler = tempo.SchedBLISS
	default:
		return cfg, fmt.Errorf("unknown scheduler %q", o.scheduler)
	}
	switch o.rowPolicy {
	case "adaptive":
		cfg.Machine.DRAM.Policy = tempo.PolicyAdaptive
	case "open":
		cfg.Machine.DRAM.Policy = tempo.PolicyOpen
	case "closed":
		cfg.Machine.DRAM.Policy = tempo.PolicyClosed
	default:
		return cfg, fmt.Errorf("unknown row policy %q", o.rowPolicy)
	}
	switch o.pageMode {
	case "4k":
		cfg.OS.Mode = vm.Mode4KOnly
	case "thp":
		cfg.OS.Mode = vm.ModeTHP
	case "hugetlbfs2m":
		cfg.OS.Mode = vm.ModeHugetlbfs2M
		cfg.OS.ReserveFraction = 0.85
	case "hugetlbfs1g":
		cfg.OS.Mode = vm.ModeHugetlbfs1G
		cfg.OS.ReserveFraction = 0.60
	default:
		return cfg, fmt.Errorf("unknown page mode %q", o.pageMode)
	}
	cfg.OS.MemhogFraction = o.memhog
	cfg.SubRows = o.subRows
	cfg.PrefetchSubRows = o.pfSubRows
	return cfg, nil
}

func main() {
	var o options
	var list bool
	flag.StringVar(&o.workload, "workload", "xsbench", "workload name (see -list)")
	flag.StringVar(&o.tracePath, "trace", "", "replay a tempo-trace file instead of a generator")
	flag.BoolVar(&list, "list", false, "list available workloads and exit")
	flag.IntVar(&o.records, "records", 200_000, "trace records per core")
	flag.Uint64Var(&o.footprint, "footprint-mb", 0, "workload footprint in MB (0 = default)")
	flag.IntVar(&o.cores, "cores", 1, "number of cores running the workload")
	flag.BoolVar(&o.sharedAS, "shared-as", false, "cores share one address space (threads)")
	flag.BoolVar(&o.tempoOn, "tempo", false, "enable TEMPO")
	flag.BoolVar(&o.llcPf, "tempo-llc", true, "TEMPO prefetches into the LLC (false = row buffer only)")
	flag.Uint64Var(&o.ptWait, "pt-wait", 10, "TEMPO PT-row wait cycles")
	flag.BoolVar(&o.impOn, "imp", false, "enable the IMP indirect prefetcher")
	flag.StringVar(&o.mech, "mech", "tempo", "translation mechanism: tempo, victima or revelator (MECHANISMS.md)")
	flag.StringVar(&o.scheduler, "scheduler", "frfcfs", "memory scheduler: frfcfs or bliss")
	flag.StringVar(&o.rowPolicy, "row-policy", "adaptive", "row policy: adaptive, open, closed")
	flag.StringVar(&o.pageMode, "pagemode", "thp", "paging: 4k, thp, hugetlbfs2m, hugetlbfs1g")
	flag.Float64Var(&o.memhog, "memhog", 0, "memhog fragmentation fraction (0..0.75)")
	flag.IntVar(&o.subRows, "sub-rows", 0, "sub-row buffers per bank (0 = single row buffer)")
	flag.IntVar(&o.pfSubRows, "prefetch-sub-rows", 0, "sub-rows dedicated to TEMPO prefetches")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	traceOut := flag.String("trace-events", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	traceFrom := flag.Uint64("trace-from", 0, "first per-core record index to trace")
	traceRecords := flag.Uint64("trace-records", 0, "number of records to trace (0 = to end of run)")
	traceBuf := flag.Int("trace-buf", 0, "event ring capacity; oldest events drop when full (0 = default)")
	statsInterval := flag.Uint64("stats-interval", 0, "flush an interval-stats snapshot every N records (0 = off)")
	statsOut := flag.String("stats-out", "tempo-stats.jsonl", "interval-stats JSONL output path")
	httpAddr := flag.String("http", "", "serve live introspection (/metrics, /events, /debug/pprof) on this address")
	flag.Parse()

	if list {
		fmt.Println("big-data workloads:   ", strings.Join(tempo.BigWorkloads(), " "))
		fmt.Println("small-footprint:      ", strings.Join(tempo.SmallWorkloads(), " "))
		return
	}
	cfg, err := buildConfig(o)
	if err != nil {
		fatal("%v", err)
	}
	var obs *tempo.Observer
	var intervalFile *os.File
	var events *serve.Broadcaster
	if *traceOut != "" || *statsInterval > 0 || *httpAddr != "" {
		oo := tempo.ObserverOptions{
			Trace:         *traceOut != "",
			TraceCapacity: *traceBuf,
			TraceFrom:     *traceFrom,
			TraceCount:    *traceRecords,
		}
		if *statsInterval > 0 {
			f, err := os.Create(*statsOut)
			if err != nil {
				fatal("stats-out: %v", err)
			}
			intervalFile = f
			oo.IntervalEvery = *statsInterval
			oo.IntervalSink = f
		}
		if *httpAddr != "" {
			// The server scrapes the snapshot published at interval
			// flushes and streams the flush lines over SSE, so a live
			// server needs a flush cadence even without -stats-interval.
			events = serve.NewBroadcaster()
			if oo.IntervalSink != nil {
				oo.IntervalSink = io.MultiWriter(oo.IntervalSink, events)
			} else {
				oo.IntervalSink = events
				oo.IntervalEvery = 2_000
			}
		}
		obs = tempo.NewObserver(oo)
	}
	if *httpAddr != "" {
		srv := serve.New(serve.Options{
			Metrics: obs.LastSnapshot,
			Events:  events,
			Meta: map[string]string{
				"binary":   "tempo-sim",
				"workload": cfg.Workloads[0].Name,
				"records":  fmt.Sprint(cfg.Records),
			},
		})
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fatal("http: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "introspection server on http://%s\n", addr)
	}

	stopCPU := startCPUProfile(*cpuprofile)
	var res *tempo.Result
	if obs != nil {
		s, serr := tempo.NewSystem(cfg)
		if serr != nil {
			fatal("%v", serr)
		}
		s.Attach(obs)
		res, err = s.Run()
	} else {
		res, err = tempo.Run(cfg)
	}
	stopCPU()
	if err != nil {
		fatal("%v", err)
	}
	writeMemProfile(*memprofile)
	printResult(res, cfg)

	if intervalFile != nil {
		if err := intervalFile.Close(); err != nil {
			fatal("stats-out: %v", err)
		}
		fmt.Printf("interval stats      %d epochs -> %s\n", obs.Epochs(), *statsOut)
	}
	if obs != nil && *traceOut != "" {
		writeTrace(*traceOut, obs, cfg)
	}
}

// writeTrace exports the recorder's events as Chrome trace-event JSON.
func writeTrace(path string, obs *tempo.Observer, cfg tempo.Config) {
	f, err := os.Create(path)
	if err != nil {
		fatal("trace-events: %v", err)
	}
	defer f.Close()
	meta := map[string]string{
		"workload": cfg.Workloads[0].Name,
		"mode":     mode(cfg),
		"records":  fmt.Sprint(cfg.Records),
	}
	if err := tempo.WriteChromeTrace(f, obs.Rec.Events(), meta); err != nil {
		fatal("trace-events: %v", err)
	}
	fmt.Printf("trace events        %d captured, %d dropped -> %s (load in ui.perfetto.dev)\n",
		obs.Rec.Len(), obs.Rec.Dropped(), path)
}

// startCPUProfile begins CPU profiling into path (no-op when empty) and
// returns the stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal("cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps a post-GC heap profile to path (no-op when
// empty).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal("memprofile: %v", err)
	}
}

func printResult(res *tempo.Result, cfg tempo.Config) {
	st := &res.Total
	fmt.Printf("workload            %s ×%d (%s)\n", cfg.Workloads[0].Name, len(cfg.Workloads), mode(cfg))
	fmt.Printf("cycles              %d\n", st.Cycles)
	fmt.Printf("instructions        %d (IPC %.4f)\n", st.Instructions, st.IPC())
	fmt.Printf("memory references   %d\n", st.MemRefs)
	fmt.Printf("TLB miss rate       %.4f (%d walks, %d leaf PTEs from DRAM)\n",
		st.TLBMissRate(), st.WalksStarted, st.WalkDRAMTouched)
	fmt.Printf("runtime fractions   PTW %.3f  replay %.3f  other-DRAM %.3f\n",
		st.RuntimeFraction(tempo.DRAMPTW), st.RuntimeFraction(tempo.DRAMReplay),
		st.RuntimeFraction(tempo.DRAMOther))
	fmt.Printf("DRAM refs           PTW %.3f  replay %.3f  other %.3f  (leaf share %.3f, replay follows %.3f)\n",
		st.DRAMRefFraction(tempo.DRAMPTW), st.DRAMRefFraction(tempo.DRAMReplay),
		st.DRAMRefFraction(tempo.DRAMOther), st.LeafPTWFraction(), st.ReplayAfterPTWFraction())
	if res.TempoOn {
		fmt.Printf("TEMPO               triggers %d  prefetches %d  suppressed %d  LLC fills %d  useful %d\n",
			st.TempoTriggers, st.TempoPrefetches, st.TempoSuppressed, st.TempoLLCFills, st.TempoUseful)
		fmt.Printf("replay service      LLC %.3f  row-buffer %.3f  DRAM-array %.3f\n",
			st.ReplayServiceFraction(tempo.ReplayLLC),
			st.ReplayServiceFraction(tempo.ReplayRowBuffer),
			st.ReplayServiceFraction(tempo.ReplayDRAMArray))
	}
	if st.IMPPrefetches > 0 {
		fmt.Printf("IMP                 prefetches %d  useful %d\n", st.IMPPrefetches, st.IMPUseful)
	}
	if res.Mechanism != "" {
		names := make([]string, 0, len(res.MechCounters))
		for name := range res.MechCounters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("mechanism           %s (%.4f J)\n", res.Mechanism, res.Energy.MechJ)
		for _, name := range names {
			fmt.Printf("  %-20s %d\n", name, res.MechCounters[name])
		}
	}
	fmt.Printf("DRAM latency (p50/p99, cycles, enqueue→done):\n")
	for _, cat := range []stats.DRAMCategory{tempo.DRAMPTW, tempo.DRAMReplay, tempo.DRAMOther} {
		if st.DRAMRefs[cat] == 0 {
			continue
		}
		fmt.Printf("  %-20s <%d / <%d\n", cat,
			st.DRAMLatencyPercentile(cat, 0.50), st.DRAMLatencyPercentile(cat, 0.99))
	}
	fmt.Printf("superpage coverage  %.3f\n", res.Superpage[0])
	e := res.Energy
	fmt.Printf("energy              %.4f J (static %.4f, DRAM %.4f, CPU %.4f, TEMPO %.4f)\n",
		e.Total(), e.StaticJ, e.DRAMDynJ, e.CPUDynJ, e.TempoJ)
	if len(res.Cores) > 1 {
		for i := range res.Cores {
			fmt.Printf("core %d              cycles %d  IPC %.4f\n", i, res.Cores[i].Cycles, res.Cores[i].IPC())
		}
	}
}

func mode(cfg tempo.Config) string {
	parts := []string{cfg.OS.Mode.String()}
	if cfg.Tempo.Enabled {
		parts = append(parts, "TEMPO")
	}
	if cfg.IMP {
		parts = append(parts, "IMP")
	}
	if cfg.Scheduler == tempo.SchedBLISS {
		parts = append(parts, "BLISS")
	}
	return strings.Join(parts, "+")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tempo-sim: "+format+"\n", args...)
	os.Exit(1)
}
