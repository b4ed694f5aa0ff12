package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Telemetry reports batch progress. Out receives human-readable
// completed/total lines with per-job wall-clock and a running ETA;
// JSONL receives one machine-readable record per completed job
// (the runs.jsonl log). Both are optional. A single Telemetry may be
// shared by every batch of a pool; totals accumulate.
type Telemetry struct {
	Out   io.Writer
	JSONL io.Writer
	// Now substitutes the clock in tests (default time.Now).
	Now func() time.Time

	mu          sync.Mutex
	start       time.Time
	total       int
	done        int
	cached      int
	failed      int
	parallelism int
	execWall    time.Duration // summed wall of executed (non-cached) jobs
	executed    int
}

// runRecord is one runs.jsonl line. Hash is the ConfigKey content
// hash that also names the job's cache entry and any interval-stats
// series file (OBSERVABILITY.md), so external tools can join the
// three on it.
type runRecord struct {
	Key       string  `json:"key"`
	Hash      string  `json:"hash,omitempty"`
	Cached    bool    `json:"cached"`
	WallMS    float64 `json:"wall_ms"`
	Err       string  `json:"err,omitempty"`
	Completed int     `json:"completed"`
	Total     int     `json:"total"`
	ElapsedMS float64 `json:"elapsed_ms"`
	EtaMS     float64 `json:"eta_ms"`
}

func (t *Telemetry) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// begin opens a batch of n jobs (adding to any batch already in
// flight).
func (t *Telemetry) begin(n, parallelism int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start.IsZero() {
		t.start = t.now()
	}
	t.total += n
	t.parallelism = parallelism
}

// note records one completed job and emits progress.
func (t *Telemetry) note(r JobResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start.IsZero() {
		t.start = t.now()
	}
	t.done++
	if t.done > t.total {
		t.total = t.done // RunOne outside a batch
	}
	switch {
	case r.Err != nil:
		t.failed++
	case r.FromCache:
		t.cached++
	default:
		t.executed++
		t.execWall += r.Wall
	}
	elapsed := t.now().Sub(t.start)
	eta := t.etaLocked()
	if t.Out != nil {
		status := ""
		switch {
		case r.Err != nil:
			status = " FAILED"
		case r.FromCache:
			status = " (cached)"
		}
		fmt.Fprintf(t.Out, "[%d/%d] %s %s%s  elapsed %s eta %s\n",
			t.done, t.total, r.Key, r.Wall.Round(time.Millisecond), status,
			elapsed.Round(time.Second), eta.Round(time.Second))
	}
	if t.JSONL != nil {
		rec := runRecord{
			Key: r.Key, Hash: r.Hash, Cached: r.FromCache,
			WallMS:    float64(r.Wall) / float64(time.Millisecond),
			Completed: t.done, Total: t.total,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
			EtaMS:     float64(eta) / float64(time.Millisecond),
		}
		if r.Err != nil {
			rec.Err = r.Err.Error()
		}
		if blob, err := json.Marshal(rec); err == nil {
			t.JSONL.Write(append(blob, '\n'))
		}
	}
}

// etaLocked estimates time to finish the batch: mean executed-job
// wall-clock times the remaining job count, divided across the
// workers. Cache hits are treated as free, which biases the estimate
// pessimistic early in a warm-cache run and exact in a cold one.
func (t *Telemetry) etaLocked() time.Duration {
	remaining := t.total - t.done
	if remaining <= 0 || t.executed == 0 {
		return 0
	}
	mean := t.execWall / time.Duration(t.executed)
	par := t.parallelism
	if par <= 0 {
		par = 1
	}
	return mean * time.Duration(remaining) / time.Duration(par)
}

// Progress is a point-in-time view of batch execution, shaped for the
// introspection server's /runs endpoint and for polling UIs.
type Progress struct {
	// Total is the number of jobs opened across all batches; Done of
	// them have completed, split into Executed, Cached and Failed.
	Total    int `json:"total"`
	Done     int `json:"done"`
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	// Parallelism is the worker count of the most recent batch.
	Parallelism int `json:"parallelism"`
	// ElapsedMS is wall-clock since the first job was opened; 0 before
	// any batch starts.
	ElapsedMS float64 `json:"elapsed_ms"`
	// EtaMS estimates time to drain the remainder; 0 when nothing
	// remains or nothing has executed yet (a cached-only batch gives
	// no basis for an estimate).
	EtaMS float64 `json:"eta_ms"`
	// MeanExecMS is the mean wall-clock of executed (non-cached) jobs;
	// 0 when none executed.
	MeanExecMS float64 `json:"mean_exec_ms"`
	// RatePerSec is completed jobs (cached included) per elapsed
	// second; 0 while elapsed is 0.
	RatePerSec float64 `json:"rate_per_sec"`
}

// Progress snapshots the totals seen so far. Every derived field is
// guarded against empty and cached-only batches: a batch with zero
// jobs, or one served entirely from cache (executed == 0), reports
// zero ETA/mean/rate instead of dividing by zero. Nil-safe.
func (t *Telemetry) Progress() Progress {
	if t == nil {
		return Progress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := Progress{
		Total: t.total, Done: t.done, Executed: t.executed,
		Cached: t.cached, Failed: t.failed, Parallelism: t.parallelism,
	}
	if !t.start.IsZero() {
		elapsed := t.now().Sub(t.start)
		p.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
		if elapsed > 0 && t.done > 0 {
			p.RatePerSec = float64(t.done) / elapsed.Seconds()
		}
	}
	if t.executed > 0 {
		p.MeanExecMS = float64(t.execWall/time.Duration(t.executed)) / float64(time.Millisecond)
	}
	p.EtaMS = float64(t.etaLocked()) / float64(time.Millisecond)
	return p
}

// warnf surfaces non-fatal engine conditions (cache write failures).
func (t *Telemetry) warnf(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Out != nil {
		fmt.Fprintf(t.Out, "warning: "+format+"\n", args...)
	}
}

// Summary renders the totals seen so far, for end-of-run reporting.
func (t *Telemetry) Summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	elapsed := time.Duration(0)
	if !t.start.IsZero() {
		elapsed = t.now().Sub(t.start)
	}
	return fmt.Sprintf("%d jobs: %d executed (%s sim time), %d cached, %d failed in %s",
		t.done, t.executed, t.execWall.Round(time.Millisecond), t.cached, t.failed,
		elapsed.Round(time.Millisecond))
}
