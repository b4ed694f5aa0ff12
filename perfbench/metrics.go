package main

import "repro/internal/stats"

// metric is one named number the benchmark reports. End-to-end metrics
// (bound > 0) are what a user of the simulator sees and are printed by
// an untraced run; per-layer metrics come from a separate traced run.
// Every per-layer metric carries its prediction: which end-to-end
// metric, on which workload, it is expected to move, and where it is
// expected to stay put. BENCHMARK.json mirrors the names, units,
// directions and bounds (the self-test checks that the two agree).
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names the end-to-end metric and workload the metric should
	// move; still names where it should not.
	moves, still string
}

// Predictions shared by families of per-layer metrics.
const (
	movesSimCount = "paper_bands_in on quick-sweep; only a modelling change may move it"
	stillSimCount = "identical on every workload under a speed-only change (digest too)"

	movesHot = "records_per_s on xsbench-tempo"
	stillHot = "setup_s on every workload (no per-record work there)"

	movesCore = "records_per_s on xsbench-tempo"
	stillCore = "everything on graph500-4c (0 TEMPO triggers there)"

	movesMem = "records_per_s on graph500-4c"
	stillMem = "records_per_s on xsbench-tempo barely (shallow DRAM queue)"

	movesSetup = "setup_s and sweep_s (many short runs on quick-sweep)"
	stillSetup = "records_per_s on xsbench-tempo and graph500-4c (negligible in long runs)"

	movesAlloc = "records_per_s and peak_rss_mb on every workload"
	stillAlloc = "simulated counts"

	movesSweep = "sweep_s on quick-sweep"
	stillSweep = "xsbench-tempo and graph500-4c, which bypass the pool and read 0"

	movesShare = "cross-checks the layer's replay estimate; moves with that layer's ns metrics"
	stillShare = "its replay-estimate twin when the two agree within their spreads"

	movesSum = "records_per_s on the workload it is measured on"
	stillSum = "simulated counts"
)

// endToEnd lists the metrics an untraced run prints, on every workload.
var endToEnd = []metric{
	{name: "records_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sweep_s", unit: "s", better: "lower", bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "paper_bands_in", unit: "count", better: "higher", bound: 0.05},
}

// replayLayers are the layers whose public calls the traced run times
// by replaying the workload's own generated stream. call names the
// timed call for the printed table; sched is reported but left out of
// the per-record sum, because the dram replay already includes the
// scheduler's picks.
var replayLayers = []struct {
	key, nsMetric, callsMetric, call, moves, still string
}{
	{"workload", "workload.ns_per_record", "workload.calls_per_record", "Generator.Next", movesSetup, stillSetup},
	{"vm", "vm.ns_per_touch", "vm.calls_per_record", "AddressSpace.Touch (faulting)", movesSetup, stillSetup},
	{"tlb", "tlb.ns_per_lookup", "tlb.calls_per_record", "TLB.Lookup (+Insert on miss)", movesHot, stillHot},
	{"ptwalk", "ptwalk.ns_per_walk", "ptwalk.calls_per_record", "Walker.Walk (fixed-latency MemPort)", movesHot, stillHot},
	{"cache", "cache.ns_per_access", "cache.access_calls_per_record", "Hierarchy.Access (+FillFromDRAM on miss)", movesHot, stillHot},
	{"cache-pf", "cache.ns_per_prefetch_fill", "cache.prefetch_fill_calls_per_record", "Hierarchy.FillPrefetch", movesHot, stillHot},
	{"dram", "dram.ns_per_request", "dram.calls_per_record", "Controller.Submit + RunUntil", movesMem, stillMem},
	{"core", "core.ns_per_trigger", "core.calls_per_record", "Engine.OnLeafPTServed", movesCore, stillCore},
}

// shareLayers are the layers a CPU profile is split into; runtime holds
// samples with no simulator frame on the stack (GC workers, scheduler).
var shareLayers = []string{"workload", "vm", "tlb", "ptwalk", "cache", "dram", "sched", "core", "sim", "runner", "experiments", "runtime"}

// perLayer lists the metrics a traced run prints, on every workload. A
// layer a workload bypasses reads 0 there (runner.* and
// experiments.eval_s outside quick-sweep, core.* on graph500-4c,
// sim.epoch_engagement without an epoch pool).
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	frac := func(name, better, moves, still string) metric {
		return metric{name: name, unit: "frac", better: better, moves: moves, still: still}
	}
	ms := []metric{
		frac("tlb.miss_rate", "lower", movesSimCount, stillSimCount),
		frac("tlb.mmu_hit_rate", "higher", movesSimCount, stillSimCount),
		{name: "ptwalk.walks_per_kref", unit: "walks/kref", better: "lower", moves: movesSimCount, still: stillSimCount},
		frac("ptwalk.leaf_dram_frac", "lower", movesSimCount, stillSimCount),
		frac("cache.l1_hit_rate", "higher", movesSimCount, stillSimCount),
		frac("cache.llc_hit_rate", "higher", movesSimCount, stillSimCount),
		{name: "dram.refs_per_kref", unit: "refs/kref", better: "lower", moves: movesSimCount, still: stillSimCount},
		frac("dram.row_hit_rate", "higher", movesSimCount, stillSimCount),
		frac("dram.writeback_frac", "lower", movesSimCount, stillSimCount),
		frac("core.tempo_useful_frac", "higher", movesSimCount, stillSimCount),
		frac("core.replay_llc_frac", "higher", movesSimCount, stillSimCount),
		{name: "sim.ipc", unit: "instr/cycle", better: "higher", moves: movesSimCount, still: stillSimCount},
		frac("sim.dram_stall_frac", "lower", movesSimCount, stillSimCount),
	}
	for b := stats.CPIBucket(0); b < stats.NumCPIBuckets; b++ {
		ms = append(ms, metric{name: cpiMetric(b), unit: "cycles/record", better: "lower", moves: movesSimCount, still: stillSimCount})
	}
	for _, l := range replayLayers {
		ms = append(ms,
			metric{name: l.nsMetric, unit: "ns", better: "lower", moves: l.moves, still: l.still},
			metric{name: l.callsMetric, unit: "calls/record", better: "lower", moves: movesSimCount, still: stillSimCount})
	}
	ms = append(ms,
		metric{name: "sched.ns_per_request_q16", unit: "ns", better: "lower", moves: movesMem, still: stillMem},
		metric{name: "sim.ns_per_record", unit: "ns/record", better: "lower", moves: movesSum, still: stillSum},
		metric{name: "sim.ns_per_record_replay", unit: "ns/record", better: "lower", moves: movesSum, still: stillSum},
		metric{name: "sim.ns_per_record_residual", unit: "ns/record", better: "lower", moves: movesMem, still: stillMem},
		frac("sim.epoch_engagement", "higher", movesMem, "xsbench-tempo and quick-sweep, which run no epoch pool and read 0"),
		frac("host.trace_overhead_frac", "lower", "nothing end to end: the cost of profiling itself", stillSum),
		metric{name: "host.allocs_per_record", unit: "allocs/record", better: "lower", moves: movesAlloc, still: stillAlloc},
		frac("host.gc_cpu_frac", "lower", movesAlloc, stillAlloc),
		metric{name: "host.share_flags", unit: "count", better: "lower", moves: movesShare, still: stillShare},
	)
	for _, l := range shareLayers {
		ms = append(ms, frac(l+".cpu_share", "lower", movesShare, stillShare))
	}
	ms = append(ms,
		metric{name: "runner.job_s.p50", unit: "s", better: "lower", moves: movesSweep, still: stillSweep},
		metric{name: "runner.job_s.p99", unit: "s", better: "lower", moves: movesSweep, still: stillSweep},
		metric{name: "runner.queue_wait_s", unit: "s", better: "lower", moves: movesSweep, still: stillSweep},
		frac("runner.dedup_frac", "lower", movesSweep, stillSweep),
		metric{name: "runner.cache_put_ns", unit: "ns", better: "lower", moves: movesSweep, still: stillSweep},
		metric{name: "runner.cache_get_ns", unit: "ns", better: "lower", moves: movesSweep, still: stillSweep},
		metric{name: "experiments.eval_s", unit: "s", better: "lower", moves: movesSweep, still: stillSweep},
	)
	return ms
}

// cpiMetric names the per-record cycles of one CPI-stack bucket.
func cpiMetric(b stats.CPIBucket) string { return "sim.cpi." + b.String() }
