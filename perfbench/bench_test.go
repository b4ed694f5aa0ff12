package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and this
// package's workload and metric tables in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, the benchmark %q: %q",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, g, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := f.PerLayer[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, g, m)
		}
		if m.moves == "" || m.still == "" {
			t.Errorf("per-layer %s has no prediction", m.name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny length,
// untraced and traced, and checks that the result line is correct and
// names every metric of the catalog with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-tiny", "-workdir", filepath.Join(t.TempDir(), "work")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestLayerOf pins the package-to-layer mapping the CPU split uses.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).Access":                    "cache",
		"repro/internal/assoc.(*Set[repro/internal/vm.T]).Lookup": "",
		"repro/internal/sim.(*Core).step":                         "sim",
		"repro.Run":                                               "sim",
		"repro/internal/translation.New":                          "core",
		"repro/internal/runner.(*Pool).Run.func1":                 "runner",
		"repro/internal/experiments.(*Runner).run":                "experiments",
		"runtime.mallocgc":                                        "",
		"encoding/gob.(*Encoder).Encode":                          "",
		"repro/internal/workload.(*gen).Next":                     "workload",
		"repro/internal/dram.(*Controller).ServeOne":              "dram",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileDecodes profiles a busy loop and checks that the decoder
// finds its samples; with no simulator frame on the stack they all
// count as runtime.
func TestProfileDecodes(t *testing.T) {
	prof := &cpuProfile{}
	if err := prof.start(); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = x*6364136223846793005 + 1442695040888963407
	}
	prof.stop()
	s := prof.shares()
	if s.err != nil || s.total == 0 {
		t.Fatalf("decoded %d samples, err %v (x=%d)", s.total, s.err, x)
	}
	if got, _ := s.share("runtime"); got != 1 {
		t.Errorf("runtime share %v, want 1", got)
	}
}
