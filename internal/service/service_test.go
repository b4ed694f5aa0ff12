package service

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

func cfgSeed(seed int64) sim.Config {
	cfg := sim.DefaultConfig("xsbench")
	cfg.Seed = seed
	return cfg
}

func stubResult(cfg sim.Config) *sim.Result {
	return &sim.Result{Total: stats.Stats{Cycles: uint64(cfg.Seed)}}
}

// waitState polls until the job reaches state (the coordinator's
// workers run asynchronously).
func waitState(t *testing.T, co *Coordinator, id string, state State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := co.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, co *Coordinator, id string) {
	t.Helper()
	select {
	case <-co.Done(id):
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
}

// Two submissions of the same config while the first is in flight
// share one job record and one execution; a third after completion is
// answered as a cache hit without running anything.
func TestSubmitDedupAndCacheHit(t *testing.T) {
	gate := make(chan struct{})
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 2, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		<-gate
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, err := co.Submit(cfgSeed(1), "alice", 0)
	if err != nil || !s1.Created {
		t.Fatalf("first submit: %+v, %v", s1, err)
	}
	waitState(t, co, s1.Job.ID, StateRunning)
	s2, err := co.Submit(cfgSeed(1), "bob", 7)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Created || s2.CacheHit || s2.Job.ID != s1.Job.ID {
		t.Fatalf("duplicate submit made a new job: %+v (first %s)", s2, s1.Job.ID)
	}
	close(gate)
	waitDone(t, co, s1.Job.ID)

	s3, err := co.Submit(cfgSeed(1), "carol", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Created || !s3.CacheHit || s3.Job.ID != s1.Job.ID {
		t.Fatalf("post-completion submit: %+v", s3)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d simulations, want 1", n)
	}
	res, err := co.Result(s1.Job.ID)
	if err != nil || res.Total.Cycles != 1 {
		t.Fatalf("result: %v, %v", res, err)
	}
	qv := co.Queue()
	if qv.Submitted != 1 || qv.Completed != 1 || qv.DedupHits != 2 {
		t.Fatalf("queue accounting: %+v", qv)
	}
}

// Higher-priority submissions run first; a duplicate submission at a
// higher priority bumps the queued job.
func TestPriorityOrdering(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		mu.Lock()
		order = append(order, cfg.Seed)
		mu.Unlock()
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, _ := co.Submit(cfgSeed(1), "", 0)
	<-started // worker busy; everything below queues
	low, _ := co.Submit(cfgSeed(2), "", 0)
	high, _ := co.Submit(cfgSeed(3), "", 10)
	bumped, _ := co.Submit(cfgSeed(4), "", 0)
	if s, err := co.Submit(cfgSeed(4), "", 20); err != nil || s.Created || s.Job.Priority != 20 {
		t.Fatalf("priority bump: %+v, %v", s, err)
	}
	close(gate)
	for _, id := range []string{s1.Job.ID, low.Job.ID, high.Job.ID, bumped.Job.ID} {
		waitDone(t, co, id)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int64{1, 4, 3, 2} // bumped (20), high (10), low (0)
	for i, seed := range want {
		if order[i] != seed {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

// A tenant at its quota is rejected while another tenant proceeds, and
// cancelling a job frees the slot.
func TestTenantQuotaAndCancelFreesSlot(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		return stubResult(cfg), nil
	}})
	defer close(gate)
	co, err := New(Options{Pool: pool, Workers: 1, TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, err := co.Submit(cfgSeed(1), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := co.Submit(cfgSeed(2), "alice", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: %v, want ErrQuotaExceeded", err)
	}
	sb, err := co.Submit(cfgSeed(3), "bob", 0)
	if err != nil {
		t.Fatalf("other tenant blocked by alice's quota: %v", err)
	}
	if err := co.Cancel(s1.Job.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, co, s1.Job.ID)
	if v, _ := co.Job(s1.Job.ID); v.State != StateCanceled {
		t.Fatalf("cancelled job state = %s", v.State)
	}
	// The slot is free: alice can submit again.
	s4, err := co.Submit(cfgSeed(4), "alice", 0)
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	waitDone(t, co, sb.Job.ID)
	waitDone(t, co, s4.Job.ID)
	qv := co.Queue()
	if qv.RejectedQuota != 1 || qv.Tenants["alice"].Rejected != 1 || qv.Tenants["bob"].Rejected != 0 {
		t.Fatalf("rejection accounting: %+v", qv)
	}
	if qv.Canceled != 1 || qv.Completed != 2 {
		t.Fatalf("lifecycle accounting: %+v", qv)
	}
}

// A full queue rejects with ErrQueueFull (backpressure), and the
// rejection is accounted.
func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		return stubResult(cfg), nil
	}})
	defer close(gate)
	co, err := New(Options{Pool: pool, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	if _, err := co.Submit(cfgSeed(1), "", 0); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := co.Submit(cfgSeed(2), "", 0); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := co.Submit(cfgSeed(3), "", 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: %v, want ErrQueueFull", err)
	}
	if qv := co.Queue(); qv.RejectedBackpressure != 1 || qv.Depth != 1 {
		t.Fatalf("backpressure accounting: %+v", qv)
	}
}

// Cancelling a queued job removes it without running it; cancelling a
// terminal job is an error.
func TestCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, _ := co.Submit(cfgSeed(1), "", 0)
	<-started
	queued, _ := co.Submit(cfgSeed(2), "", 0)
	if err := co.Cancel(queued.Job.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := co.Job(queued.Job.ID); v.State != StateCanceled {
		t.Fatalf("state = %s", v.State)
	}
	if err := co.Cancel(queued.Job.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel: %v, want ErrTerminal", err)
	}
	if err := co.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown cancel: %v, want ErrNotFound", err)
	}
	close(gate)
	waitDone(t, co, s1.Job.ID)
	if n := execs.Load(); n != 1 {
		t.Fatalf("cancelled queued job still executed (%d runs)", n)
	}
}

// A coordinator killed mid-flight resumes from its journal: unfinished
// jobs (running included) re-queue under their original IDs, and once
// completed, a later restart answers the same config from the
// journal + persistent cache without re-running.
func TestJournalResumeAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.jsonl")
	cache, err := runner.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: one job running (blocked), one queued; drain-close.
	gate := make(chan struct{})
	started := make(chan struct{})
	pool1 := runner.New(runner.Options{Parallelism: 1, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		close(started)
		<-gate
		return stubResult(cfg), nil
	}})
	co1, err := New(Options{Pool: pool1, Cache: cache, Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := co1.Submit(cfgSeed(1), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s2, err := co1.Submit(cfgSeed(2), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate) // release the abandoned simulation goroutine

	// Phase 2: restart; both jobs resume under their IDs and complete.
	var execs2 atomic.Int64
	pool2 := runner.New(runner.Options{Parallelism: 1, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs2.Add(1)
		return stubResult(cfg), nil
	}})
	co2, err := New(Options{Pool: pool2, Cache: cache, Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{s1.Job.ID, s2.Job.ID} {
		if _, ok := co2.Job(id); !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		waitDone(t, co2, id)
		if v, _ := co2.Job(id); v.State != StateCompleted {
			t.Fatalf("job %s state = %s after resume", id, v.State)
		}
	}
	if n := execs2.Load(); n != 2 {
		t.Fatalf("resume executed %d simulations, want 2", n)
	}
	if err := co2.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: restart again; the same config is answered from the
	// journal's completed record + persistent cache, no execution.
	pool3 := runner.New(runner.Options{Parallelism: 1, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		t.Error("third restart executed a simulation")
		return stubResult(cfg), nil
	}})
	co3, err := New(Options{Pool: pool3, Cache: cache, Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	s3, err := co3.Submit(cfgSeed(1), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Created || !s3.CacheHit || s3.Job.ID != s1.Job.ID {
		t.Fatalf("post-restart submit: %+v (want cache hit on %s)", s3, s1.Job.ID)
	}
	res, err := co3.Result(s1.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles != 1 {
		t.Fatalf("restored result cycles = %d", res.Total.Cycles)
	}
}

// A torn journal tail (a crash mid-write) truncates replay at the last
// durable record instead of failing startup.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.jsonl")
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	co1, err := New(Options{Pool: pool, Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := co1.Submit(cfgSeed(1), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, co1, s1.Job.ID)
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"submit","id":"torn`) // no closing brace, no newline
	f.Close()

	co2, err := New(Options{Pool: pool, Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatalf("torn tail failed startup: %v", err)
	}
	defer co2.Close()
	if v, ok := co2.Job(s1.Job.ID); !ok || v.State != StateCompleted {
		t.Fatalf("durable record lost: ok=%v state=%v", ok, v.State)
	}
	if _, ok := co2.Job("torn"); ok {
		t.Fatal("torn record replayed")
	}
}

// The canonical svc/* metrics satisfy the registry-wide conservation
// audit through a mixed lifecycle (completions, failure, cancellation,
// rejections).
func TestServiceMetricsAuditClean(t *testing.T) {
	reg := obsv.NewRegistry()
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		switch cfg.Seed {
		case 1:
			close(started)
			<-gate
		case 3:
			return nil, errors.New("synthetic failure")
		}
		return stubResult(cfg), nil
	}})
	defer close(gate)
	co, err := New(Options{Pool: pool, Workers: 1, TenantQuota: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, _ := co.Submit(cfgSeed(1), "alice", 0)
	<-started
	s2, _ := co.Submit(cfgSeed(2), "alice", 0)
	if _, err := co.Submit(cfgSeed(9), "alice", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota: %v", err)
	}
	s3, _ := co.Submit(cfgSeed(3), "bob", 0) // will fail
	s4, _ := co.Submit(cfgSeed(4), "bob", 0) // will be cancelled while queued
	if err := co.Cancel(s4.Job.ID); err != nil {
		t.Fatal(err)
	}
	if err := co.Cancel(s1.Job.ID); err != nil { // cancel the running job
		t.Fatal(err)
	}
	for _, id := range []string{s1.Job.ID, s2.Job.ID, s3.Job.ID, s4.Job.ID} {
		waitDone(t, co, id)
	}

	snap := reg.Snapshot()
	if v := obsv.Audit(snap); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
	if got := snap.Counters[obsv.MetricSvcSubmitted]; got != 4 {
		t.Fatalf("submitted = %d, want 4", got)
	}
	want := map[string]uint64{
		obsv.MetricSvcCompleted:     1,
		obsv.MetricSvcFailed:        1,
		obsv.MetricSvcCanceled:      2,
		obsv.MetricSvcRejectedQuota: 1,
		"svc/tenant/alice/admitted": 2,
		"svc/tenant/alice/rejected": 1,
		"svc/tenant/bob/admitted":   2,
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// Submissions against a closed coordinator fail fast.
func TestSubmitAfterClose(t *testing.T) {
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(cfgSeed(1), "", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestSubmitDedupsAcrossWorkerCounts pins the service-level face of
// the Workers cache-identity contract: submissions differing only in
// the ignored Config.Workers field are the same experiment and must
// deduplicate onto one job rather than simulate twice.
func TestSubmitDedupsAcrossWorkerCounts(t *testing.T) {
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	cfg := cfgSeed(3)
	cfg.Workers = 1
	s1, err := co.Submit(cfg, "alice", 0)
	if err != nil || !s1.Created {
		t.Fatalf("first submit: %+v, %v", s1, err)
	}
	waitDone(t, co, s1.Job.ID)
	cfg.Workers = 8
	s2, err := co.Submit(cfg, "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Created || !s2.CacheHit || s2.Job.ID != s1.Job.ID {
		t.Fatalf("Workers=8 submission did not dedup onto the Workers=1 job: %+v", s2)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d simulations, want 1", n)
	}
}
