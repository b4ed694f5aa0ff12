package main

import (
	"fmt"
	"runtime"
	"time"

	tempo "repro"
	"repro/internal/sim"
)

// longRun is a workload made of repeated long simulations of one
// configuration: every pass assembles a fresh System from the same
// seed, runs it, audits it and hashes its result.
type longRun struct {
	// records is the trace length per core of a full-length pass.
	records int
	config  func(seed int64) tempo.Config
}

var xsbenchTempo = longRun{records: 500_000, config: func(seed int64) tempo.Config {
	cfg := tempo.DefaultConfig("xsbench")
	cfg.Tempo = tempo.DefaultTempo()
	cfg.Seed = seed
	return cfg
}}

// graph500x4 runs four graph500 threads over one address space; each
// core's trace seed derives from the run seed (Seed*1000 + core + 1).
var graph500x4 = longRun{records: 125_000, config: func(seed int64) tempo.Config {
	cfg := tempo.DefaultConfig("graph500")
	cfg.Workloads = make([]tempo.WorkloadSpec, 4)
	for i := range cfg.Workloads {
		cfg.Workloads[i].Name = "graph500"
	}
	cfg.SharedAddressSpace = true
	cfg.Scheduler = tempo.SchedFRFCFS
	cfg.Workers = 2
	cfg.Seed = seed
	return cfg
}}

func (lr longRun) cfg(o options) tempo.Config {
	cfg := lr.config(o.seed)
	cfg.Records = lr.records
	if o.tiny {
		cfg.Records = 20_000 / len(cfg.Workloads)
	}
	return cfg
}

// pass is one checked simulation.
type pass struct {
	setup, run, wall time.Duration
	res              *tempo.Result
	par              sim.ParallelStats
	digest           string
}

// onePass assembles and runs cfg. With prof set, the CPU profile
// covers exactly the simulation (System.Run). A panic, an audit
// violation or a record count other than the configured one is an
// error.
func onePass(cfg tempo.Config, prof *cpuProfile) (p pass, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	s, err := tempo.NewSystem(cfg)
	if err != nil {
		return p, err
	}
	t1 := time.Now()
	if prof != nil {
		if err := prof.start(); err != nil {
			return p, err
		}
	}
	res, err := s.Run()
	t2 := time.Now()
	if prof != nil {
		prof.stop()
	}
	if err != nil {
		return p, err
	}
	if err := auditErr(res); err != nil {
		return p, err
	}
	if want := uint64(cfg.Records * len(cfg.Workloads)); res.Total.MemRefs != want {
		return p, fmt.Errorf("simulated %d records, configured %d", res.Total.MemRefs, want)
	}
	d, err := digest(res)
	if err != nil {
		return p, err
	}
	return pass{setup: t1.Sub(t0), run: t2.Sub(t1), wall: time.Since(t0), res: res, par: s.ParallelStats(), digest: d}, nil
}

// passLog runs checked passes and keeps their timings. Every digest is
// compared with ref (set from the first good pass when empty). With a
// calibrator, a kernel sample follows every pass, so each pass also has
// its timings in reference seconds (see calib.go).
type passLog struct {
	rps, walls, setups          []float64 // host
	refRPS, refWalls, refSetups []float64 // reference host
	last                        pass
	ref                         string
	cal                         *calibrator
}

// runUntil runs passes until the deadline would be overrun by one more,
// making at least min attempts.
func (l *passLog) runUntil(out *outcome, cfg tempo.Config, deadline time.Time, min int, prof *cpuProfile) {
	records := float64(cfg.Records * len(cfg.Workloads))
	for n := 0; ; n++ {
		est := time.Duration(median(l.walls) * float64(time.Second))
		if n >= min && time.Now().Add(est).After(deadline) {
			return
		}
		if n >= min && out.failed > 2 {
			return // a broken configuration: do not spin until the deadline
		}
		out.attempted++
		p, err := onePass(cfg, prof)
		if l.cal != nil {
			l.cal.sample()
		}
		if err != nil {
			out.fail("pass %d: %v", n, err)
			continue
		}
		if l.ref == "" {
			l.ref = p.digest
		} else if p.digest != l.ref {
			out.fail("pass %d: result digest %s differs from %s for the same seed", n, p.digest, l.ref)
		}
		l.setups = append(l.setups, p.setup.Seconds())
		l.rps = append(l.rps, records/p.run.Seconds())
		l.walls = append(l.walls, p.wall.Seconds())
		if l.cal != nil {
			i := len(l.cal.rates) - 2
			l.refSetups = append(l.refSetups, l.cal.toRef(p.setup.Seconds(), i))
			l.refRPS = append(l.refRPS, records/l.cal.toRef(p.run.Seconds(), i))
			l.refWalls = append(l.refWalls, l.cal.toRef(p.wall.Seconds(), i))
		}
		l.last = p
	}
}

// setupSamples times n bare System assemblies.
func setupSamples(out *outcome, cfg tempo.Config, n int) []float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		out.attempted++
		t := time.Now()
		if _, err := tempo.NewSystem(cfg); err != nil {
			out.fail("setup: %v", err)
			continue
		}
		xs = append(xs, time.Since(t).Seconds())
	}
	return xs
}

// measure is the untraced run. A first pass in the fresh process gives
// peak_rss_mb (later passes only add garbage-collector timing noise to
// it). Then come set-up samples and passes until the time is up, each
// bracketed by calibration samples. records_per_s excludes set-up;
// sweep_s is one whole pass, from Config to audited result.
func (lr longRun) measure(o options) (*outcome, error) {
	out := newOutcome()
	cfg := lr.cfg(o)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var log passLog
	log.runUntil(out, cfg, time.Time{}, 1, nil)
	rss := peakRSSMB()
	log.cal = newCalibrator()
	log.cal.sample()
	runtime.GC()
	setups := setupSamples(out, cfg, 100)
	log.cal.sample()
	for _, x := range setups {
		log.refSetups = append(log.refSetups, log.cal.toRef(x, 0))
	}
	log.setups = append(log.setups, setups...)
	log.runUntil(out, cfg, deadline, 1, nil)
	if len(log.refRPS) == 0 {
		return nil, fmt.Errorf("no pass succeeded: %v", out.problems)
	}
	in, of, err := runBands(log.last.res)
	if err != nil {
		return nil, err
	}
	out.metrics["records_per_s"] = median(log.refRPS)
	out.metrics["setup_s"] = median(log.refSetups)
	out.metrics["sweep_s"] = median(log.refWalls)
	out.metrics["peak_rss_mb"] = rss
	out.metrics["paper_bands_in"] = float64(in)
	out.notef("passes %d of %d records, digest %s, paper bands in %d of %d per-run bands",
		len(log.rps), cfg.Records*len(cfg.Workloads), log.ref, in, of)
	out.notef("host time (uncalibrated medians): records/s %.0f, pass %.4f s, setup %.6f s; kernel rate %.4g/s (reference %.4g/s)",
		median(log.rps), median(log.walls), median(log.setups), median(log.cal.rates), refKernelRate)
	out.notef("records/s per pass, reference host: %s", fmtList(log.refRPS, "%.0f"))
	return out, nil
}

// traced is the per-layer run: untraced passes (the reference speed,
// allocation and GC counters), profiled passes (the CPU split and the
// tracing overhead), then the layer replay.
func (lr longRun) traced(o options) (*outcome, error) {
	out := newOutcome()
	cfg := lr.cfg(o)
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, profiled passLog
	before := readRuntimeCounters()
	plain.runUntil(out, cfg, start.Add(budget*35/100), 2, nil)
	after := readRuntimeCounters()
	prof := &cpuProfile{}
	profiled.ref = plain.ref
	profiled.runUntil(out, cfg, start.Add(budget*70/100), 1, prof)
	if len(plain.rps) == 0 || len(profiled.rps) == 0 {
		return nil, fmt.Errorf("no pass succeeded: %v", out.problems)
	}
	res := plain.last.res
	records := uint64(cfg.Records * len(cfg.Workloads))
	m := out.metrics
	simCounts(out, &res.Total)
	m["sim.epoch_engagement"] = ratio(plain.last.par.EpochRecords, records)
	m["host.allocs_per_record"], m["host.gc_cpu_frac"] =
		hostUse(before, after, records*uint64(len(plain.rps)))
	m["host.trace_overhead_frac"] = median(plain.rps)/median(profiled.rps) - 1
	for _, name := range []string{"runner.job_s.p50", "runner.job_s.p99", "runner.queue_wait_s",
		"runner.dedup_frac", "runner.cache_put_ns", "runner.cache_get_ns", "experiments.eval_s"} {
		m[name] = 0 // no pool, no result cache, no figures: bypassed
	}

	n := 200_000
	if o.tiny {
		n = 4_000
	}
	per := n / len(cfg.Workloads)
	timings, err := replay([]replayInput{{cfg: cfg, records: per}}, 5)
	if err != nil {
		return nil, err
	}
	calls := layerCalls(&res.Total, pageFaults(res, cfg.SharedAddressSpace))
	attribute(out, timings, calls, 1e9/median(plain.rps), prof.shares())
	out.notef("passes %d plain + %d profiled of %d records, digest %s", len(plain.rps), len(profiled.rps), records, plain.ref)
	return out, nil
}
