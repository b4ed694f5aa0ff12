// Package runner is the experiment-execution engine: it takes a batch
// of uniquely-keyed simulation configurations, deduplicates them, fans
// them out across worker goroutines, and returns results in the
// batch's key order regardless of completion order. Runs are
// insulated from each other — a panicking simulation becomes a
// per-job error, a per-job timeout abandons only that job, and a
// cancelled context stops scheduling new work — so a sweep of
// hundreds of simulations survives individual failures. An optional
// persistent on-disk cache (see DiskCache) lets re-runs and figure
// subsets skip completed simulations, and optional telemetry reports
// completed/total progress with per-job wall-clock, an ETA, and a
// machine-readable runs.jsonl log.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Job is one simulation to execute. Key must uniquely describe Config
// within a batch: it names the result in logs and memo tables, while
// the persistent cache is keyed by a content hash of Config itself.
type Job struct {
	Key    string
	Config sim.Config
}

// JobResult is the outcome of one job. Exactly one of Result and Err
// is set.
type JobResult struct {
	Key    string
	Result *sim.Result
	Err    error
	// Hash is the ConfigKey content hash of the job's configuration —
	// the name of its cache entry and of any per-run observability
	// artifacts (interval-stats series). Empty when the config could
	// not be hashed.
	Hash string
	// Wall is the job's execution wall-clock (zero for cache hits).
	Wall time.Duration
	// FromCache reports that the persistent cache supplied the result.
	FromCache bool
	// Parallel is always zero: part of the benchmark compatibility
	// shim described in sim's compat.go.
	Parallel sim.ParallelStats
}

// Options configures a Pool.
type Options struct {
	// Parallelism is the worker count (default GOMAXPROCS).
	Parallelism int
	// Timeout bounds one job's execution when positive. A timed-out
	// simulation is abandoned (its goroutines are left to finish in
	// the background — sim has no preemption point) and the job
	// reports an error.
	Timeout time.Duration
	// Cache, when set, persists results across process runs.
	Cache *DiskCache
	// Telemetry, when set, receives progress events.
	Telemetry *Telemetry
	// Exec executes one configuration (default sim.Run). Tests
	// substitute failing/slow/panicking executors.
	Exec func(sim.Config) (*sim.Result, error)
}

// Pool executes job batches. It is safe for concurrent use; counters
// accumulate across batches.
type Pool struct {
	opts Options
	// exec is the resolved executor: Options.Exec or sim.Run.
	exec func(sim.Config) (*sim.Result, error)

	executed  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	panicked  atomic.Uint64
	failed    atomic.Uint64
	wallTotal atomic.Int64 // nanoseconds spent executing sims

	// schemaMismatches counts cache entries that exist but are
	// unusable: entries under a foreign v* schema root plus entries
	// that failed to decode. schemaWarned makes the telemetry warning
	// fire once per pool rather than once per miss.
	schemaMismatches atomic.Uint64
	schemaWarned     atomic.Bool
}

// New builds a pool. A zero Options value gives GOMAXPROCS workers,
// no timeout, no persistent cache and no telemetry.
func New(opts Options) *Pool {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	exec := sim.Run
	if opts.Exec != nil {
		exec = opts.Exec
	}
	return &Pool{opts: opts, exec: exec}
}

// Parallelism returns the configured worker count.
func (p *Pool) Parallelism() int { return p.opts.Parallelism }

// Executed returns how many simulations actually ran (cache misses).
func (p *Pool) Executed() uint64 { return p.executed.Load() }

// CacheHits returns how many jobs the persistent cache satisfied.
func (p *Pool) CacheHits() uint64 { return p.hits.Load() }

// CacheMisses returns how many jobs missed the persistent cache (every
// job counts as a miss when no cache is configured).
func (p *Pool) CacheMisses() uint64 { return p.misses.Load() }

// Failed returns how many jobs ended in an error (panics included).
func (p *Pool) Failed() uint64 { return p.failed.Load() }

// CacheSchemaMismatches returns how many persistent-cache entries were
// present but unusable — stored under a different schema version, or
// undecodable under the current one. Non-zero means misses that look
// cold are actually a schema skew (say, a cache directory written by
// an older binary), which the pool also reports through telemetry
// once.
func (p *Pool) CacheSchemaMismatches() uint64 { return p.schemaMismatches.Load() }

// SimWall returns the summed execution wall-clock across all workers —
// the serial-equivalent cost of the work the pool has done.
func (p *Pool) SimWall() time.Duration { return time.Duration(p.wallTotal.Load()) }

// Run executes a batch. Jobs sharing a Key are deduplicated (first
// occurrence wins; a duplicate whose config hashes differently is
// reported as that job's error) and the returned slice holds one
// JobResult per unique key, in first-occurrence order. Run never
// returns early on job failure: every runnable job is attempted, and
// errors are per-entry. A cancelled ctx marks the not-yet-started
// remainder with ctx.Err().
func (p *Pool) Run(ctx context.Context, jobs []Job) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	// Deduplicate, preserving order and checking key/config agreement.
	type task struct {
		job  Job
		hash string
	}
	var tasks []task
	results := make([]JobResult, 0, len(jobs))
	index := make(map[string]int)     // key -> results index
	taskAt := make(map[string]int)    // key -> tasks index
	collided := make(map[string]bool) // keys reused with differing configs
	for _, j := range jobs {
		h, err := ConfigKey(j.Config)
		if err != nil {
			results = append(results, JobResult{Key: j.Key, Err: err})
			index[j.Key] = len(results) - 1
			continue
		}
		if at, ok := taskAt[j.Key]; ok {
			if tasks[at].hash != h {
				collided[j.Key] = true
			}
			continue
		}
		taskAt[j.Key] = len(tasks)
		tasks = append(tasks, task{job: j, hash: h})
		results = append(results, JobResult{Key: j.Key})
		index[j.Key] = len(results) - 1
	}

	if p.opts.Telemetry != nil {
		p.opts.Telemetry.begin(len(tasks), p.opts.Parallelism)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	workers := p.opts.Parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t := tasks[i]
				r := p.runOne(ctx, t.job, t.hash)
				results[index[t.job.Key]] = r
				if p.opts.Telemetry != nil {
					p.opts.Telemetry.note(r)
				}
			}
		}()
	}
feed:
	for i := range tasks {
		select {
		case work <- i:
		case <-ctx.Done():
			// Mark the unscheduled remainder; in-flight jobs finish.
			for j := i; j < len(tasks); j++ {
				select {
				case work <- j:
				default:
					at := index[tasks[j].job.Key]
					results[at] = JobResult{Key: tasks[j].job.Key, Hash: tasks[j].hash, Err: ctx.Err()}
					p.failed.Add(1)
				}
			}
			break feed
		}
	}
	close(work)
	wg.Wait()
	// Collided keys are ambiguous: a result computed for one of the
	// configurations must not be attributed to the other.
	for key := range collided {
		results[index[key]] = JobResult{Key: key, Err: fmt.Errorf(
			"runner: key %q reused for two different configurations", key)}
		p.failed.Add(1)
	}
	return results
}

// RunOne executes (or recalls) a single job.
func (p *Pool) RunOne(ctx context.Context, key string, cfg sim.Config) (*sim.Result, error) {
	r := p.RunJob(ctx, Job{Key: key, Config: cfg})
	return r.Result, r.Err
}

// RunJob executes (or recalls) a single job, returning the full
// JobResult — cache attribution, config hash and wall-clock included.
// It is the single-job entry point the service coordinator's workers
// use, so a job served from the persistent cache is distinguishable
// from one that executed.
func (p *Pool) RunJob(ctx context.Context, j Job) JobResult {
	h, err := ConfigKey(j.Config)
	if err != nil {
		return JobResult{Key: j.Key, Err: err}
	}
	r := p.runOne(ctx, j, h)
	if p.opts.Telemetry != nil {
		p.opts.Telemetry.note(r)
	}
	return r
}

// runOne serves one deduplicated job: persistent cache first, then a
// guarded execution.
func (p *Pool) runOne(ctx context.Context, j Job, hash string) JobResult {
	if err := ctx.Err(); err != nil {
		p.failed.Add(1)
		return JobResult{Key: j.Key, Hash: hash, Err: err}
	}
	if c := p.opts.Cache; c != nil {
		if res, ok := c.Get(hash); ok {
			p.hits.Add(1)
			return JobResult{Key: j.Key, Hash: hash, Result: res, FromCache: true}
		}
		p.noteSchemaMismatch(c)
	}
	p.misses.Add(1)
	start := time.Now()
	res, err := p.execute(ctx, j.Config)
	wall := time.Since(start)
	p.wallTotal.Add(int64(wall))
	if err != nil {
		p.failed.Add(1)
		return JobResult{Key: j.Key, Hash: hash, Err: fmt.Errorf("runner: %s: %w", j.Key, err), Wall: wall}
	}
	p.executed.Add(1)
	if c := p.opts.Cache; c != nil {
		if werr := c.Put(hash, res); werr != nil {
			// A cache write failure degrades to a cold cache; the
			// result itself is good.
			if t := p.opts.Telemetry; t != nil {
				t.warnf("cache write for %s failed: %v", j.Key, werr)
			}
		}
	}
	return JobResult{Key: j.Key, Hash: hash, Result: res, Wall: wall}
}

// noteSchemaMismatch runs after a cache miss: if the cache holds
// entries this engine version cannot use (foreign schema roots, or
// current-schema entries that failed to decode), the count is surfaced
// instead of letting the miss masquerade as a cold cache. The
// telemetry warning fires once per pool; the counter stays current.
func (p *Pool) noteSchemaMismatch(c *DiskCache) {
	vers, stale := c.Stale()
	fails := c.DecodeFailures()
	if stale == 0 && fails == 0 {
		return
	}
	p.schemaMismatches.Store(uint64(stale) + fails)
	if p.schemaWarned.CompareAndSwap(false, true) {
		if t := p.opts.Telemetry; t != nil {
			t.warnf("cache schema mismatch: %d entries under foreign schema versions %v (current v%d), %d undecodable under v%d — all treated as misses",
				stale, vers, SchemaVersion, fails, SchemaVersion)
		}
	}
}

// outcome carries one execution's result across the guard goroutine.
type outcome struct {
	res *sim.Result
	err error
}

// execute runs one simulation under panic recovery and the configured
// timeout. The simulation itself has no preemption points, so timeout
// and cancellation abandon it rather than interrupting it.
func (p *Pool) execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.panicked.Add(1)
				ch <- outcome{err: fmt.Errorf("simulation panicked: %v\n%s", r, debug.Stack())}
			}
		}()
		res, err := p.exec(cfg)
		ch <- outcome{res: res, err: err}
	}()
	var timeout <-chan time.Time
	if p.opts.Timeout > 0 {
		t := time.NewTimer(p.opts.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timeout:
		return nil, fmt.Errorf("timed out after %v (simulation abandoned)", p.opts.Timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
