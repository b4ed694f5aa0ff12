package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	tempo "repro"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// sweepWorkers is the pool size: two, or fewer on a smaller host.
func sweepWorkers() int { return min(2, runtime.NumCPU()) }

func sweepScale(o options) tempo.Scale {
	s := tempo.QuickScale()
	if o.tiny {
		s.Records, s.MixRecords = 1_500, 500
		s.Footprint, s.MixFootprint = 64<<20, 32<<20
	}
	return s
}

// recordingEngine is the experiments.Engine the sweep runs through: a
// runner.Pool, with every batch timed and every job result kept. Traced,
// it is also the pool's executor, noting how long each job waited after
// its batch was dispatched.
type recordingEngine struct {
	pool  *runner.Pool
	start time.Time
	// first is start to the first batch dispatched; batches is the
	// time spent inside the pool.
	first, batches time.Duration
	submitted      int
	results        []runner.JobResult
	shared         map[string]bool // job key -> shared address space

	mu         sync.Mutex
	batchStart time.Time
	waits      []float64
}

func (e *recordingEngine) Run(ctx context.Context, jobs []runner.Job) []runner.JobResult {
	t := time.Now()
	if e.first == 0 {
		e.first = t.Sub(e.start)
	}
	e.mu.Lock()
	e.batchStart = t
	e.mu.Unlock()
	res := e.pool.Run(ctx, jobs)
	e.batches += time.Since(t)
	e.submitted += len(jobs)
	e.results = append(e.results, res...)
	for _, j := range jobs {
		e.shared[j.Key] = j.Config.SharedAddressSpace
	}
	return res
}

func (e *recordingEngine) RunOne(ctx context.Context, key string, cfg sim.Config) (*sim.Result, error) {
	r := e.Run(ctx, []runner.Job{{Key: key, Config: cfg}})
	return r[0].Result, r[0].Err
}

func (e *recordingEngine) exec(cfg sim.Config) (*sim.Result, error) {
	now := time.Now()
	e.mu.Lock()
	e.waits = append(e.waits, now.Sub(e.batchStart).Seconds())
	e.mu.Unlock()
	return tempo.Run(cfg)
}

// sweep is one pass of the quick sweep.
type sweep struct {
	eng      *recordingEngine
	wall     time.Duration
	report   string
	bands    int
	records  uint64 // records simulated by executed jobs
	executed uint64
	simWall  time.Duration
}

// runSweep regenerates every registered figure, then evaluates the
// claims and the paper comparison, through a pool whose result cache
// lives in dir. The report is every figure, the claims table and the
// comparison table, as text.
func runSweep(dir string, scale tempo.Scale, traced bool) (*sweep, error) {
	start := time.Now()
	dc, err := runner.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	eng := &recordingEngine{start: start, shared: map[string]bool{}}
	opts := runner.Options{Parallelism: sweepWorkers(), Cache: dc}
	if traced {
		opts.Exec = eng.exec
	}
	eng.pool = runner.New(opts)
	r := tempo.NewParallelRunner(scale, eng)
	var b strings.Builder
	for _, f := range experiments.All() {
		rep, err := r.RunFigure(f)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(&b, rep)
	}
	claims, err := experiments.EvaluateClaims(r)
	if err != nil {
		return nil, err
	}
	b.WriteString(experiments.FormatClaims(claims))
	table, err := experiments.ComparePaper(r)
	if err != nil {
		return nil, err
	}
	b.WriteString(table)
	s := &sweep{eng: eng, wall: time.Since(start), report: b.String(), bands: comparePaperBands(table),
		executed: eng.pool.Executed(), simWall: eng.pool.SimWall()}
	for _, jr := range eng.results {
		if jr.Result != nil && !jr.FromCache {
			s.records += jr.Result.Total.MemRefs
		}
	}
	return s, nil
}

// check audits every job of a sweep and compares its report with ref.
// Each job is one operation, and so is the sweep itself.
func (s *sweep) check(out *outcome, name, ref string) {
	for _, jr := range s.eng.results {
		out.attempted++
		if jr.Err != nil {
			out.fail("%s: job %s: %v", name, jr.Key, jr.Err)
		} else if err := auditErr(jr.Result); err != nil {
			out.fail("%s: job %s: %v", name, jr.Key, err)
		}
	}
	out.attempted++
	if n := s.eng.pool.Failed(); n > 0 {
		out.fail("%s: the pool reports %d failed jobs", name, n)
	} else if ref != "" && s.report != ref {
		out.fail("%s: report text differs from the first sweep's", name)
	}
}

// sweepSetups times start to first dispatch n times without running
// anything: cache, pool and runner construction over an empty cache
// directory plus enumerating the first figure's simulations.
func sweepSetups(out *outcome, workDir string, scale tempo.Scale, n int) []float64 {
	var xs []float64
	dir, err := coldDir(workDir, "setup")
	if err != nil {
		out.attempted++
		out.fail("setup: %v", err)
		return nil
	}
	defer os.RemoveAll(dir)
	for i := 0; i < n; i++ {
		out.attempted++
		start := time.Now()
		dc, err := runner.NewDiskCache(dir)
		if err == nil {
			r := tempo.NewParallelRunner(scale, runner.New(runner.Options{Parallelism: sweepWorkers(), Cache: dc}))
			_, err = r.Enumerate(experiments.All()[0])
		}
		d := time.Since(start)
		if err != nil {
			out.fail("setup: %v", err)
			continue
		}
		xs = append(xs, d.Seconds())
	}
	return xs
}

// measureSweep is the untraced quick-sweep: cold sweeps (each into an
// empty cache) until the time is up, set-up samples after the first,
// then one warm pass over the last sweep's cache. Calibration samples
// bracket every sweep and the set-up block (see calib.go).
func measureSweep(o options) (*outcome, error) {
	out := newOutcome()
	scale := sweepScale(o)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	cal := newCalibrator()
	cal.sample()
	var setups, walls, rps, refSetups, refWalls, refRPS []float64
	var ref, dir string
	bands := 0
	for i := 0; ; i++ {
		if i == 1 {
			runtime.GC()
			xs := sweepSetups(out, o.workDir, scale, 100)
			cal.sample()
			for _, x := range xs {
				refSetups = append(refSetups, cal.toRef(x, len(cal.rates)-2))
			}
			setups = append(setups, xs...)
		}
		est := time.Duration(median(walls) * float64(time.Second))
		if i >= 2 && time.Now().Add(est).After(deadline) {
			break
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = coldDir(o.workDir, fmt.Sprintf("sweep-%d", i)); err != nil {
			return nil, err
		}
		s, err := runSweep(dir, scale, false)
		cal.sample()
		if err != nil {
			out.attempted++
			out.fail("sweep %d: %v", i, err)
			if i >= 2 {
				break
			}
			continue
		}
		s.check(out, fmt.Sprintf("sweep %d", i), ref)
		if ref == "" {
			ref, bands = s.report, s.bands
		}
		k := len(cal.rates) - 2
		setups = append(setups, s.eng.first.Seconds())
		walls = append(walls, s.wall.Seconds())
		rps = append(rps, float64(s.records)/s.wall.Seconds())
		refSetups = append(refSetups, cal.toRef(s.eng.first.Seconds(), k))
		refWalls = append(refWalls, cal.toRef(s.wall.Seconds(), k))
		refRPS = append(refRPS, float64(s.records)/cal.toRef(s.wall.Seconds(), k))
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no sweep succeeded: %v", out.problems)
	}
	if err := warmPass(out, dir, scale, ref); err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	// Which simulations overlap on the two workers sets a sweep's peak;
	// the maximum over the sweeps is the steady reading. The calibration
	// tables, resident throughout, are not the simulator's.
	out.metrics["peak_rss_mb"] = peakRSSMB() - kernelTableMB
	out.metrics["records_per_s"] = median(refRPS)
	out.metrics["setup_s"] = median(refSetups)
	out.metrics["sweep_s"] = median(refWalls)
	out.metrics["paper_bands_in"] = float64(bands)
	out.notef("%d cold sweeps, paper bands in %d of %d", len(walls), bands, len(experiments.PaperPoints()))
	out.notef("host time (uncalibrated medians): records/s %.0f, sweep %.3f s, setup %.6f s; kernel rate %.4g/s (reference %.4g/s)",
		median(rps), median(walls), median(setups), median(cal.rates), refKernelRate)
	out.notef("sweep walls, reference host (s): %s", fmtList(refWalls, "%.3f"))
	return out, nil
}

// warmPass reruns the sweep over a populated cache: nothing may
// execute and the report must not change.
func warmPass(out *outcome, dir string, scale tempo.Scale, ref string) error {
	w, err := runSweep(dir, scale, false)
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	w.check(out, "warm pass", ref)
	out.attempted++
	if w.executed != 0 {
		out.fail("warm pass executed %d simulations, want 0", w.executed)
	}
	out.notef("warm pass %.3f s, %d simulations served from the cache", w.wall.Seconds(), len(w.eng.results))
	return nil
}

// tracedSweep is quick-sweep's per-layer run: an untraced reference
// sweep, a traced sweep (CPU profile, per-job waits), a warm pass, the
// result cache's Put and Get timed on the sweep's results, and the
// layer replay over the quick-scale streams of the big workloads.
func tracedSweep(o options) (*outcome, error) {
	out := newOutcome()
	scale := sweepScale(o)
	dirA, err := coldDir(o.workDir, "sweep-plain")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirA)
	dirB, err := coldDir(o.workDir, "sweep-traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirB)

	before := readRuntimeCounters()
	a, err := runSweep(dirA, scale, false)
	if err != nil {
		return nil, err
	}
	after := readRuntimeCounters()
	a.check(out, "plain sweep", "")
	prof := &cpuProfile{}
	if err := prof.start(); err != nil {
		return nil, err
	}
	b, err := runSweep(dirB, scale, true)
	prof.stop()
	if err != nil {
		return nil, err
	}
	b.check(out, "traced sweep", a.report)
	if err := warmPass(out, dirB, scale, a.report); err != nil {
		return nil, err
	}

	m := out.metrics
	var total stats.Stats
	var runtimeCycles, faults, epochRecords uint64
	var jobs []float64
	for _, jr := range b.eng.results {
		if jr.Result == nil || jr.FromCache {
			continue
		}
		total.Add(&jr.Result.Total)
		runtimeCycles += jr.Result.Total.Cycles
		faults += pageFaults(jr.Result, b.eng.shared[jr.Key])
		jobs = append(jobs, jr.Wall.Seconds())
	}
	for _, jr := range a.eng.results {
		epochRecords += jr.Parallel.EpochRecords
	}
	simCounts(out, &total)
	m["sim.ipc"] = ratio(total.Instructions, runtimeCycles) // Add maxes Cycles; sum runtimes instead
	m["sim.epoch_engagement"] = ratio(epochRecords, a.records)
	m["host.allocs_per_record"], m["host.gc_cpu_frac"] = hostUse(before, after, a.records)
	m["host.trace_overhead_frac"] = b.wall.Seconds()/a.wall.Seconds() - 1
	m["runner.job_s.p50"] = median(jobs)
	m["runner.job_s.p99"] = percentile(jobs, 0.99)
	m["runner.queue_wait_s"] = mean(b.eng.waits)
	m["runner.dedup_frac"] = float64(b.executed) / float64(b.eng.submitted)
	m["experiments.eval_s"] = (b.wall - b.eng.batches).Seconds()
	put, get, err := cacheTimings(o.workDir, b.eng.results)
	if err != nil {
		return nil, err
	}
	m["runner.cache_put_ns"], m["runner.cache_get_ns"] = put, get

	var inputs []replayInput
	for _, wl := range scale.Big {
		cfg := tempo.DefaultConfig(wl)
		cfg.Workloads[0].Footprint = scale.Footprint
		cfg.Tempo = tempo.DefaultTempo()
		inputs = append(inputs, replayInput{cfg: cfg, records: scale.Records})
	}
	timings, err := replay(inputs, 5)
	if err != nil {
		return nil, err
	}
	// The measured figure is per-job execution time per record: it
	// includes each short simulation's own set-up, which the replay does
	// not cover and the residual therefore holds.
	nsPerRecord := float64(a.simWall.Nanoseconds()) / float64(a.records)
	attribute(out, timings, layerCalls(&total, faults), nsPerRecord, prof.shares())
	out.notef("plain sweep %.2f s, traced %.2f s; %d jobs submitted, %d executed; batches %.2f s, evaluation %.2f s",
		a.wall.Seconds(), b.wall.Seconds(), b.eng.submitted, b.executed, b.eng.batches.Seconds(), m["experiments.eval_s"])
	return out, nil
}

// cacheTimings times DiskCache.Put of every executed result into an
// empty cache, then DiskCache.Get of each, warm; medians in ns.
func cacheTimings(workDir string, results []runner.JobResult) (put, get float64, err error) {
	dir, err := coldDir(workDir, "cache-timing")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	dc, err := runner.NewDiskCache(dir)
	if err != nil {
		return 0, 0, err
	}
	var puts, gets []float64
	var keys []string
	for _, jr := range results {
		if jr.Result == nil || jr.FromCache || jr.Hash == "" {
			continue
		}
		t := time.Now()
		if err := dc.Put(jr.Hash, jr.Result); err != nil {
			return 0, 0, fmt.Errorf("cache put: %w", err)
		}
		puts = append(puts, float64(time.Since(t).Nanoseconds()))
		keys = append(keys, jr.Hash)
	}
	for _, k := range keys {
		t := time.Now()
		if _, ok := dc.Get(k); !ok {
			return 0, 0, fmt.Errorf("cache get: %s missing after put", k)
		}
		gets = append(gets, float64(time.Since(t).Nanoseconds()))
	}
	return median(puts), median(gets), nil
}

// coldDir clears workDir/name, so a result cache opened there starts
// empty, and returns its path.
func coldDir(workDir, name string) (string, error) {
	dir := filepath.Join(workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", fmt.Errorf("clearing %s: %w", dir, err)
	}
	return dir, nil
}
