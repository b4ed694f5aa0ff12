package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runBench executes bench.sh --dry-run with the snapshot and history
// redirected into dir, returning combined output.
func runBench(t *testing.T, dir string) string {
	t.Helper()
	cmd := exec.Command("bash", "bench.sh", "--dry-run")
	cmd.Env = append(os.Environ(),
		"BENCH_OUT="+filepath.Join(dir, "hotpath.json"),
		"BENCH_HISTORY="+filepath.Join(dir, "history.jsonl"),
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench.sh --dry-run: %v\n%s", err, out)
	}
	return string(out)
}

func historyLines(t *testing.T, dir string) []string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
}

// An unchanged revision contributes exactly one history record no
// matter how often bench.sh runs: the second run replaces the first
// run's line instead of appending a duplicate.
func TestBenchHistoryDedupesUnchangedCommit(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()

	out := runBench(t, dir)
	if !strings.Contains(out, "appended") {
		t.Fatalf("first run should append:\n%s", out)
	}
	first := historyLines(t, dir)
	if len(first) != 1 {
		t.Fatalf("history after first run has %d lines, want 1", len(first))
	}
	if !strings.Contains(first[0], `"commit":"`) || !strings.Contains(first[0], `"hotpath":{`) {
		t.Fatalf("malformed history record: %s", first[0])
	}

	out = runBench(t, dir)
	if !strings.Contains(out, "replaced 1 prior record(s)") {
		t.Fatalf("second run at the same revision should replace:\n%s", out)
	}
	second := historyLines(t, dir)
	if len(second) != 1 {
		t.Fatalf("history after re-run has %d lines, want 1 (duplicate appended)", len(second))
	}
}

// Every snapshot (and therefore every history record, which embeds the
// snapshot verbatim) carries the host it was measured on: throughput
// numbers only compare across like hosts.
func TestBenchSnapshotCarriesHostMetadata(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	runBench(t, dir)

	blob, err := os.ReadFile(filepath.Join(dir, "hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Host struct {
			NumCPU     int    `json:"num_cpu"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			GoVersion  string `json:"go_version"`
		} `json:"host"`
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, blob)
	}
	if snap.Host.NumCPU < 1 {
		t.Errorf("host.num_cpu = %d, want >= 1", snap.Host.NumCPU)
	}
	if snap.Host.GOMAXPROCS < 1 {
		t.Errorf("host.gomaxprocs = %d, want >= 1", snap.Host.GOMAXPROCS)
	}
	if !strings.HasPrefix(snap.Host.GoVersion, "go") {
		t.Errorf("host.go_version = %q, want a goX.Y.Z string", snap.Host.GoVersion)
	}
	// The history record embeds the snapshot, host object included.
	line := historyLines(t, dir)[0]
	if !strings.Contains(line, `"host":`) || !strings.Contains(line, `"num_cpu":`) {
		t.Errorf("history record lost the host metadata: %s", line)
	}
}

// The snapshot holds exactly the three measured hot paths, each with
// an "after" measurement; the perf gate diffs these sections leaf by
// leaf, so a section appearing or vanishing changes what it gates.
func TestBenchSnapshotSections(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	runBench(t, dir)

	blob, err := os.ReadFile(filepath.Join(dir, "hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, blob)
	}
	want := []string{"xsbench_tempo", "multicore_tempo", "graph500_baseline"}
	known := map[string]bool{"benchmark": true, "records_per_run": true, "baseline_commit": true, "host": true}
	for _, k := range want {
		known[k] = true
	}
	for k := range snap {
		if !known[k] {
			t.Errorf("unexpected snapshot section %q", k)
		}
	}
	for _, k := range want {
		var sec struct {
			After struct {
				RecordsPerSec   float64  `json:"records_per_sec"`
				AllocsPerRecord *float64 `json:"allocs_per_record"`
			} `json:"after"`
		}
		raw, ok := snap[k]
		if !ok {
			t.Errorf("snapshot lacks section %q", k)
			continue
		}
		if err := json.Unmarshal(raw, &sec); err != nil {
			t.Fatalf("section %q: %v", k, err)
		}
		if sec.After.RecordsPerSec <= 0 || sec.After.AllocsPerRecord == nil {
			t.Errorf("section %q lacks after.records_per_sec / allocs_per_record: %s", k, raw)
		}
	}
}

// A history seeded before deduplication existed can hold several
// records of one revision, scattered around foreign records. Re-running
// at that revision collapses all of them into the single fresh record
// while leaving the foreign records untouched and in order.
func TestBenchHistoryCollapsesScatteredDuplicates(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()

	// First run discovers the current revision string.
	runBench(t, dir)
	seed := historyLines(t, dir)[0]

	foreign := `{"timestamp":"2026-01-01T00:00:00Z","commit":"deadbee","hotpath":{}}`
	pre := seed + "\n" + foreign + "\n" + seed + "\n" + seed + "\n"
	if err := os.WriteFile(filepath.Join(dir, "history.jsonl"), []byte(pre), 0o644); err != nil {
		t.Fatal(err)
	}

	out := runBench(t, dir)
	if !strings.Contains(out, "replaced 3 prior record(s)") {
		t.Fatalf("run should collapse all three duplicates:\n%s", out)
	}
	lines := historyLines(t, dir)
	if len(lines) != 2 {
		t.Fatalf("history has %d lines, want 2 (foreign + fresh): %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], `"commit":"deadbee"`) {
		t.Fatalf("foreign record lost or reordered: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"hotpath":{`) {
		t.Fatalf("fresh record malformed: %s", lines[1])
	}
}

// A history whose last record belongs to a different revision is
// appended to, never rewritten — only same-revision re-runs replace.
func TestBenchHistoryAppendsAcrossCommits(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	prior := `{"timestamp":"2026-01-01T00:00:00Z","commit":"deadbee","hotpath":{}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "history.jsonl"), []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}

	out := runBench(t, dir)
	if !strings.Contains(out, "appended") {
		t.Fatalf("run at a new revision should append:\n%s", out)
	}
	lines := historyLines(t, dir)
	if len(lines) != 2 {
		t.Fatalf("history has %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"commit":"deadbee"`) {
		t.Fatalf("prior record rewritten: %s", lines[0])
	}
}
