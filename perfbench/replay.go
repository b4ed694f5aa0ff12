package main

import (
	"fmt"
	"math"
	"time"

	tempo "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/ptwalk"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// replayInput is one configuration whose generated streams are replayed
// through the layers: records per core, machine and OS as configured.
type replayInput struct {
	cfg     tempo.Config
	records int
}

// layerTiming is one layer's replay: time and calls per repetition.
type layerTiming struct {
	ns    []time.Duration
	calls []int
}

func (t *layerTiming) add(rep int, d time.Duration, calls int) {
	if rep == 0 {
		return // the recording repetition
	}
	for len(t.ns) <= rep {
		t.ns = append(t.ns, 0)
		t.calls = append(t.calls, 0)
	}
	t.ns[rep] += d
	t.calls[rep] += calls
}

// perCall returns the median, minimum and maximum ns per call over the
// repetitions (0 when the layer was never called).
func (t *layerTiming) perCall() (med, lo, hi float64) {
	var xs []float64
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 1; i < len(t.ns); i++ {
		if t.calls[i] == 0 {
			continue
		}
		x := float64(t.ns[i].Nanoseconds()) / float64(t.calls[i])
		xs = append(xs, x)
		lo, hi = min(lo, x), max(hi, x)
	}
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return median(xs), lo, hi
}

// fixedPort answers every page-table read from the cache at a constant
// latency, so a walk replay times the walker alone.
type fixedPort struct{}

func (fixedPort) ReadPTE(mem.PAddr, int, bool, uint64, uint64) (uint64, bool) { return 42, false }

// streamRecord is one replayed record with the core that issued it.
type streamRecord struct {
	core int
	rec  trace.Record
}

// replay times each layer's public calls over the inputs' generated
// streams, reps times, with fresh structures each repetition. A first,
// untimed repetition records the streams each later layer replays. Keys
// follow replayLayers plus "sched" for the deep-queue variant of the
// DRAM replay.
func replay(inputs []replayInput, reps int) (map[string]*layerTiming, error) {
	t := map[string]*layerTiming{}
	for _, k := range []string{"workload", "vm", "tlb", "ptwalk", "cache", "cache-pf", "dram", "sched", "core"} {
		t[k] = &layerTiming{}
	}
	for _, in := range inputs {
		if err := replayOne(in, reps, t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func replayOne(in replayInput, reps int, t map[string]*layerTiming) error {
	cfg := in.cfg
	ncores := len(cfg.Workloads)

	// workload: Generator.Next over fresh generators, records
	// interleaved round-robin across cores as a coordinator would.
	gen := func() ([]workload.Generator, error) {
		gs := make([]workload.Generator, ncores)
		for i, spec := range cfg.Workloads {
			seed := spec.Seed
			if seed == 0 {
				seed = cfg.Seed*1000 + int64(i) + 1 // sim.New's derivation
			}
			g, err := workload.New(spec.Name, workload.Config{FootprintBytes: spec.Footprint, Seed: seed})
			if err != nil {
				return nil, err
			}
			gs[i] = g
		}
		return gs, nil
	}
	var recs []streamRecord
	footprints := make([]uint64, ncores)
	for rep := 0; rep < reps; rep++ {
		gs, err := gen()
		if err != nil {
			return err
		}
		if rep == 0 {
			recs = make([]streamRecord, 0, in.records*ncores)
			for i, g := range gs {
				footprints[i] = g.Footprint()
			}
		}
		start := time.Now()
		for n := 0; n < in.records; n++ {
			for c, g := range gs {
				r, _ := g.Next()
				if rep == 0 {
					recs = append(recs, streamRecord{c, r})
				}
			}
		}
		t["workload"].add(rep, time.Since(start), in.records*ncores)
	}

	// vm: AddressSpace.Touch. The simulator touches only to fault a
	// page in, so the replay prices a faulting touch: one pass over a
	// fresh address space (faults plus resident lookups) minus the
	// lookup cost measured by a second, all-resident pass.
	var spaces []*vm.AddressSpace
	trs := make([]vm.Translation, len(recs))
	for rep := 0; rep < reps; rep++ {
		as, err := addressSpaces(cfg, footprints)
		if err != nil {
			return err
		}
		faults := 0
		start := time.Now()
		for i, r := range recs {
			tr, faulted, err := as[r.core].Touch(r.rec.VAddr)
			if err != nil {
				return fmt.Errorf("replay touch: %w", err)
			}
			if faulted {
				faults++
			}
			trs[i] = tr
		}
		first := time.Since(start)
		start = time.Now()
		for _, r := range recs {
			as[r.core].Touch(r.rec.VAddr)
		}
		resident := time.Since(start)
		hits := len(recs) - faults
		t["vm"].add(rep, first-time.Duration(float64(resident)*float64(hits)/float64(len(recs))), faults)
		spaces = as
	}

	// tlb: Lookup, plus Insert on a miss. The misses feed the walker,
	// prefetch-fill and TEMPO-engine replays.
	var missed []int
	for rep := 0; rep < reps; rep++ {
		tlbs := make([]*tlb.TLB, ncores)
		for i := range tlbs {
			tlbs[i] = tlb.New(cfg.Machine.TLB)
		}
		start := time.Now()
		for i, r := range recs {
			if _, lvl := tlbs[r.core].Lookup(r.rec.VAddr); lvl == tlb.Miss {
				tlbs[r.core].Insert(trs[i])
				if rep == 0 {
					missed = append(missed, i)
				}
			}
		}
		t["tlb"].add(rep, time.Since(start), len(recs))
	}

	// ptwalk: Walker.Walk over the TLB-miss addresses with fresh MMU
	// caches and a fixed-latency memory port.
	for rep := 0; rep < reps; rep++ {
		walkers := make([]*ptwalk.Walker, ncores)
		for i := range walkers {
			walkers[i] = ptwalk.New(spaces[i].Table(), tlb.NewMMUCache(cfg.Machine.MMU), &stats.Stats{})
		}
		var at uint64
		start := time.Now()
		for _, i := range missed {
			r := recs[i]
			at += walkers[r.core].Walk(r.rec.VAddr, at, fixedPort{}).Latency
		}
		t["ptwalk"].add(rep, time.Since(start), len(missed))
	}

	// cache: Hierarchy.Access, plus FillFromDRAM on a miss, over a
	// shared LLC; then FillPrefetch of the TLB-missing records' lines,
	// which is what TEMPO's fills install. The DRAM-bound lines (misses
	// and dirty victims) feed the DRAM replays.
	type dramRef struct {
		addr  mem.PAddr
		write bool
		core  int
	}
	var refs []dramRef
	for rep := 0; rep < reps; rep++ {
		llc := cache.New(cfg.Machine.Caches.LLC)
		hs := make([]*cache.Hierarchy, ncores)
		for i := range hs {
			hs[i] = cache.NewHierarchyShared(cfg.Machine.Caches, llc, &stats.Stats{})
		}
		start := time.Now()
		for i, r := range recs {
			p := trs[i].Translate(r.rec.VAddr)
			write := r.rec.Kind == trace.Store
			h := hs[r.core]
			ar := h.Access(p, write)
			if rep == 0 {
				for _, wb := range ar.Writebacks {
					refs = append(refs, dramRef{wb, true, r.core})
				}
			}
			if ar.Served == cache.ServedDRAM {
				wbs := h.FillFromDRAM(p, write)
				if rep == 0 {
					refs = append(refs, dramRef{p.Line(), false, r.core})
					for _, wb := range wbs {
						refs = append(refs, dramRef{wb, true, r.core})
					}
				}
			}
		}
		t["cache"].add(rep, time.Since(start), len(recs))
		start = time.Now()
		for _, i := range missed {
			r := recs[i]
			hs[r.core].FillPrefetch(trs[i].Translate(r.rec.VAddr), cache.FillTempo)
		}
		t["cache-pf"].add(rep, time.Since(start), len(missed))
	}

	// dram: Controller.Submit + RunUntil, one request at a time; sched:
	// the same stream in batches of 16, drained, so every pick scans a
	// deep queue.
	dcfg := cfg.Machine.DRAM
	dcfg.PTRowWait = 0
	if cfg.Tempo.Enabled {
		dcfg.PTRowWait = cfg.Tempo.PTRowWait
	}
	submit := func(c *dram.Controller, ref dramRef, at uint64) *dram.Request {
		r := c.Pool().Get()
		r.Addr, r.Write, r.CoreID, r.Enqueue = ref.addr, ref.write, ref.core, at
		r.Category = stats.DRAMOther
		if ref.write {
			r.Category = stats.DRAMWriteback
		}
		c.Submit(r)
		return r
	}
	const batch = 16
	for rep := 0; rep < reps; rep++ {
		c := dram.NewController(dcfg, newScheduler(cfg), &stats.Stats{})
		var at uint64
		start := time.Now()
		for _, ref := range refs {
			r := submit(c, ref, at)
			at = c.RunUntil(r)
			c.Pool().Release(r)
		}
		t["dram"].add(rep, time.Since(start), len(refs))

		c = dram.NewController(dcfg, newScheduler(cfg), &stats.Stats{})
		at = 0
		var inflight [batch]*dram.Request
		start = time.Now()
		for lo := 0; lo < len(refs); lo += batch {
			n := min(batch, len(refs)-lo)
			for k := 0; k < n; k++ {
				inflight[k] = submit(c, refs[lo+k], at+uint64(k))
			}
			c.Drain()
			for k := 0; k < n; k++ {
				at = max(at, inflight[k].Complete)
				c.Pool().Release(inflight[k])
			}
		}
		t["sched"].add(rep, time.Since(start), len(refs))
	}

	// core: Engine.OnLeafPTServed for the leaf-PTE reads the TLB misses
	// produce, against the replayed page tables.
	var leaves []*dram.Request
	var reader core.MultiReader
	for i, as := range spaces {
		if i == 0 || as != spaces[0] {
			reader = append(reader, as.Table())
		}
	}
	for _, i := range missed {
		r := recs[i]
		steps, n, ok := spaces[r.core].Table().Walk(r.rec.VAddr)
		if !ok {
			return fmt.Errorf("replay: %#x unmapped after its touch", uint64(r.rec.VAddr))
		}
		leaves = append(leaves, &dram.Request{Addr: steps[n-1].PTEAddr, IsLeafPT: true,
			ReplayLine: ptwalk.ReplayLineOf(r.rec.VAddr), CoreID: r.core})
	}
	for rep := 0; rep < reps; rep++ {
		e := core.NewEngine(reader, &stats.Stats{})
		var pool dram.Pool
		e.Pool = &pool
		start := time.Now()
		for k, req := range leaves {
			pool.Release(e.OnLeafPTServed(req, uint64(k)))
		}
		t["core"].add(rep, time.Since(start), len(leaves))
	}
	return nil
}

// addressSpaces rebuilds the per-core address spaces sim.New would
// assemble for cfg (one shared space for threads) from the generators'
// footprints.
func addressSpaces(cfg tempo.Config, footprints []uint64) ([]*vm.AddressSpace, error) {
	n := len(cfg.Workloads)
	var total uint64
	for i, fp := range footprints {
		if !cfg.SharedAddressSpace || i == 0 {
			total += fp
		}
	}
	frames := cfg.PhysFrames
	if frames == 0 {
		frames = max(2*total/mem.PageSize, 1<<16)
	}
	buddy := vm.NewBuddy(frames)
	nspaces := n
	if cfg.SharedAddressSpace {
		nspaces = 1
	}
	spaces := make([]*vm.AddressSpace, n)
	for i := range spaces {
		if cfg.SharedAddressSpace && i > 0 {
			spaces[i] = spaces[0]
			continue
		}
		oscfg := vm.OSConfig{
			PhysFrames:      buddy.TotalFrames(),
			Mode:            cfg.OS.Mode,
			THPEligibility:  cfg.OS.THPEligibility,
			ReserveFraction: cfg.OS.ReserveFraction / float64(nspaces),
			Seed:            cfg.Seed*77 + int64(i),
		}
		if i == 0 {
			oscfg.MemhogFraction = cfg.OS.MemhogFraction
		}
		as, err := vm.NewAddressSpaceShared(oscfg, buddy)
		if err != nil {
			return nil, fmt.Errorf("replay address space: %w", err)
		}
		spaces[i] = as
	}
	return spaces, nil
}

// newScheduler picks the scheduler sim.New would for cfg.
func newScheduler(cfg tempo.Config) dram.Scheduler {
	aware := cfg.Tempo.Enabled && cfg.Tempo.SchedulerAware
	if cfg.Scheduler == tempo.SchedBLISS {
		if aware {
			return sched.NewTempoBLISS()
		}
		return sched.NewBLISS()
	}
	if aware {
		return sched.NewTempoFRFCFS()
	}
	return sched.NewFRFCFS()
}

// shareRows pairs replayed calls with the profile layers whose self
// time they cover: a walk replay descends the vm page table, and the
// DRAM replay includes the scheduler's picks.
var shareRows = []struct {
	name        string
	replay, cpu []string
}{
	{"workload", []string{"workload"}, []string{"workload"}},
	{"vm+ptwalk", []string{"vm", "ptwalk"}, []string{"vm", "ptwalk"}},
	{"tlb", []string{"tlb"}, []string{"tlb"}},
	{"cache", []string{"cache", "cache-pf"}, []string{"cache"}},
	{"dram+sched", []string{"dram"}, []string{"dram", "sched"}},
	{"core", []string{"core"}, []string{"core"}},
}

// attribute turns replay timings and the simulator's calls per record
// into the host ns-per-call metrics, the per-record replay sum and its
// residual against the measured ns per record, and cross-checks each
// layer's replay share against its CPU-profile share: a row is flagged
// when the two differ by more than their spreads combined (the replay's
// range over repetitions, the profile's sampling error).
func attribute(out *outcome, t map[string]*layerTiming, calls map[string]float64, nsPerRecord float64, shares layerShares) {
	m := out.metrics
	var sum float64
	est := map[string][2]float64{} // replayed call -> share of ns/record and its spread
	out.notef("%-9s %-42s %12s %14s %12s", "layer", "replayed call", "ns/call", "calls/record", "ns/record")
	for _, l := range replayLayers {
		med, lo, hi := t[l.key].perCall()
		c := calls[l.key]
		m[l.nsMetric], m[l.callsMetric] = med, c
		sum += med * c
		est[l.key] = [2]float64{med * c / nsPerRecord, (hi - lo) * c / nsPerRecord}
		out.notef("%-9s %-42s %12.1f %14.5f %12.1f", l.key, l.call, med, c, med*c)
	}
	m["sched.ns_per_request_q16"], _, _ = t["sched"].perCall()
	m["sim.ns_per_record"] = nsPerRecord
	m["sim.ns_per_record_replay"] = sum
	m["sim.ns_per_record_residual"] = nsPerRecord - sum
	out.notef("measured %.1f ns/record = replay sum %.1f + residual %.1f (sched at queue depth 16: %.1f ns/request, inside dram's figure)",
		nsPerRecord, sum, nsPerRecord-sum, m["sched.ns_per_request_q16"])

	for _, l := range shareLayers {
		m[l+".cpu_share"], _ = shares.share(l)
	}
	if shares.err != nil {
		out.fail("cpu profile: %v", shares.err)
	}
	flags := 0
	out.notef("%-10s %14s %14s  (share of host time: replay estimate vs CPU-profile self time, %d samples)", "layers", "replay", "cpu", shares.total)
	for _, row := range shareRows {
		var r, rs, c, cs float64
		for _, k := range row.replay {
			r, rs = r+est[k][0], rs+est[k][1]
		}
		for _, l := range row.cpu {
			x, xs := shares.share(l)
			c, cs = c+x, cs+xs
		}
		flag := ""
		if shares.total > 0 && math.Abs(r-c) > rs+cs {
			flags++
			flag = "  DISAGREE"
		}
		out.notef("%-10s %7.3f±%.3f %7.3f±%.3f%s", row.name, r, rs, c, cs, flag)
	}
	m["host.share_flags"] = float64(flags)
}
