package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
)

// stamp identifies what produced a result: the workload and seed, the
// host, the toolchain and the source revision.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	Trace       bool   `json:"trace"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Revision    string `json:"git_revision"`
	Dirty       bool   `json:"git_dirty"`
}

func newStamp(o options) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, HeldOutSeed: heldOutSeed, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Revision: gitRevision, Dirty: gitDirty == "true",
	}
}

// gitRevision and gitDirty are set at link time by run.sh from the
// checkout's git work tree; a plain source checkout has none.
var gitRevision, gitDirty = "unknown", "false"

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeCounters samples the allocation and CPU counters the host.*
// metrics are deltas of.
type runtimeCounters struct{ allocs, gcCPU, totalCPU float64 }

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// hostUse turns two samples into allocations per record and the share
// of CPU time the garbage collector took.
func hostUse(before, after runtimeCounters, records uint64) (allocsPerRecord, gcFrac float64) {
	if records > 0 {
		allocsPerRecord = (after.allocs - before.allocs) / float64(records)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	return allocsPerRecord, gcFrac
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fmtList formats xs for a report line.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
