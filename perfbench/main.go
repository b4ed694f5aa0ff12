// Command perfbench is the repository benchmark: it measures how fast
// the TEMPO simulator runs, how much memory it takes, and whether its
// results still match the paper, on three workloads, and checks the
// simulator's outputs while it does.
//
//	bash perfbench/run.sh --workload xsbench-tempo --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics instead (simulated
// counts, host time per call of each layer's public API, a CPU-profile
// split by layer, and the runner's job statistics). All tracing lives
// in this package: it wraps and times calls into the simulator's
// public functions, so the simulator itself runs uninstrumented.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":9,"failed":0,"metrics":{"records_per_s":{"value":581203.2,"unit":"1/s"},...}}
//
// Seeds 1 to 10 were used while this benchmark was written; seed 7919
// (heldOutSeed) was not, so a later claim can be re-checked on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// heldOutSeed is a seed no part of this benchmark was tuned on.
const heldOutSeed = 7919

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds scratch result caches; it must lie inside the
	// checkout the benchmark runs in.
	workDir string
	// tiny shrinks every workload to a few thousand records (self-test).
	tiny bool
}

// outcome is what one run measured and how many of its operations
// failed a correctness check.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// notes are human-readable lines (tables, cross-checks) printed
	// before the metrics.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadDef is one named workload: why it is in the benchmark and how
// it is measured untraced and traced.
type workloadDef struct {
	name, why       string
	measure, traced func(options) (*outcome, error)
}

var workloads = []workloadDef{
	{
		name:    "xsbench-tempo",
		why:     "the paper's hot path: 1 core, xsbench, THP, TEMPO on; TLB, walker, TEMPO engine and LLC prefetch fills do most of the work",
		measure: xsbenchTempo.measure, traced: xsbenchTempo.traced,
	},
	{
		name:    "graph500-4c",
		why:     "bypass and contention: 4 graph500 threads, TEMPO off, FR-FCFS, 2 workers; DRAM conflicts, writebacks, coordinator and epoch engine",
		measure: graph500x4.measure, traced: graph500x4.traced,
	},
	{
		name:    "quick-sweep",
		why:     "what users run: every figure at quick scale plus claims and ComparePaper through a 2-worker pool into a cold DiskCache",
		measure: measureSweep, traced: tracedSweep,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var list bool
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (xsbench-tempo, graph500-4c; quick-sweep's seeds are fixed by the experiment registry)")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", ".bench_build/work", "scratch directory for result caches")
	fs.BoolVar(&list, "list", false, "print every metric with its predicted effect, then exit")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a few thousand records (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if list {
		printCatalog(stdout)
		return 0
	}
	o.trace = trace == 1
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == o.workload })
	if i < 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and positive --seconds\n", strings.Join(names, ", "))
		return 2
	}
	w := workloads[i]
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	st, _ := json.Marshal(newStamp(o)) // strings, numbers and bools always encode
	fmt.Fprintf(stdout, "stamp %s\n", st)
	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)

	measure, want := w.measure, endToEnd
	if o.trace {
		measure, want = w.traced, perLayer
	}
	out, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := emit(stdout, out, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable report and, as the last line, the
// result object. Every metric of the run's kind must have been
// measured, and nothing else.
func emit(w io.Writer, out *outcome, want []metric) error {
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		fmt.Fprintf(w, "%-40s %16.6g %s\n", m.name, v, m.unit)
	}
	if len(out.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, the catalog names %d", len(out.metrics), len(want))
	}
	fmt.Fprintf(w, "%-40s %16.6g frac (%d failed of %d attempted)\n", "error_rate",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-36s %-14s %s is better, bound %.0f%%\n", m.name, m.unit, m.better, 100*m.bound)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %-14s moves: %s; still: %s\n", m.name, m.unit, m.moves, m.still)
	}
}
