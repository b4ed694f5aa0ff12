package tempo

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// hotPathRun executes cfg for the given records per core (the
// instrumentation stays disabled) and returns the process's exact
// heap-allocation count delta and the wall time.
func hotPathRun(t *testing.T, cfg Config, records int) (allocs uint64, elapsed time.Duration) {
	t.Helper()
	cfg.Records = records
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, elapsed
}

// xsbenchTempoConfig is the BenchmarkHotPathTempo configuration:
// single-core xsbench + TEMPO.
func xsbenchTempoConfig() Config {
	cfg := DefaultConfig("xsbench")
	cfg.Workloads[0].Footprint = 256 << 20
	cfg.Tempo = DefaultTempo()
	return cfg
}

// graph500SharedConfig is four graph500 threads over one address
// space, TEMPO off, FR-FCFS: the multi-core baseline whose DRAM queue
// the scheduler drains record by record.
func graph500SharedConfig() Config {
	cfg := DefaultConfig("graph500")
	cfg.Workloads = nil
	for i := 0; i < 4; i++ {
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{Name: "graph500"})
	}
	cfg.SharedAddressSpace = true
	cfg.Scheduler = SchedFRFCFS
	return cfg
}

// TestHotPathStaysAllocationFree is the observability layer's
// zero-overhead-when-disabled guard: with no Observer attached the
// steady-state per-record path must stay at ~0 allocations. System
// construction allocates plenty, so a single run can't isolate the
// per-record cost; instead two runs at different record counts give a
// two-point fit — (allocs(250k) - allocs(50k)) / (200k × cores), at
// 50k and 250k records per core — in which the (equal) construction
// cost cancels. It checks two inputs: xsbench + TEMPO on one core, and
// the 4-thread graph500 baseline.
//
// With BENCH_ASSERT=1 it additionally checks throughput against the
// pinned BENCH_hotpath.json numbers (within 5%). That comparison only
// makes sense on the machine that generated the JSON (scripts/bench.sh
// regenerates it), so it is opt-in rather than a default CI gate.
func TestHotPathStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-path guard runs 300k records per input; skipped in -short")
	}
	const n1, n2 = 50_000, 250_000
	var el2 time.Duration
	for _, in := range []struct {
		name string
		cfg  Config
	}{
		{"xsbench-tempo", xsbenchTempoConfig()},
		{"graph500-4c", graph500SharedConfig()},
	} {
		a1, _ := hotPathRun(t, in.cfg, n1)
		a2, el := hotPathRun(t, in.cfg, n2)
		if in.name == "xsbench-tempo" {
			el2 = el
		}
		perRecord := (float64(a2) - float64(a1)) / float64((n2-n1)*len(in.cfg.Workloads))
		// Allow a whisper of noise (GC bookkeeping, map growth in stats):
		// the budget is well under one allocation per hundred records.
		if perRecord > 0.01 {
			t.Errorf("%s: hot path allocates %.4f allocs/record with instrumentation disabled (runs: %d allocs @%d records/core, %d @%d); want ~0",
				in.name, perRecord, a1, n1, a2, n2)
		}
	}

	if os.Getenv("BENCH_ASSERT") != "1" {
		t.Log("set BENCH_ASSERT=1 to also check throughput against BENCH_hotpath.json")
		return
	}
	raw, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatalf("BENCH_ASSERT=1 but no baseline: %v", err)
	}
	var doc struct {
		Xsbench struct {
			After struct {
				RecordsPerSec float64 `json:"records_per_sec"`
			} `json:"after"`
		} `json:"xsbench_tempo"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_hotpath.json: %v", err)
	}
	pinned := doc.Xsbench.After.RecordsPerSec
	measured := float64(n2) / el2.Seconds()
	if measured < 0.95*pinned {
		t.Errorf("hot-path throughput %.0f records/s is more than 5%% below the pinned %.0f (regenerate with scripts/bench.sh if the machine changed)",
			measured, pinned)
	}
}
