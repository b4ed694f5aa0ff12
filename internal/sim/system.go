package sim

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obsv"
	"repro/internal/prefetch"
	"repro/internal/ptwalk"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/translation"
	"repro/internal/vm"
	"repro/internal/workload"
)

// openTraceStream loads a whole trace file into memory and returns a
// replayable stream. Loading up front keeps the simulation loop free
// of I/O and lets the run fail fast on a corrupt file.
func openTraceStream(path string) (trace.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", path, err)
	}
	// Size the record slice once instead of append-growing through
	// repeated reallocations: v2 traces carry an exact record count in
	// the header; for v1 files fall back to a file-size heuristic
	// (records encode in well under 8 bytes each, see TestCompression).
	capHint := r.Count()
	if capHint == 0 {
		if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
			capHint = uint64(fi.Size()) / 8
		}
	}
	recs := make([]trace.Record, 0, capHint)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("sim: %s: empty trace", path)
	}
	return trace.NewSliceStream(recs), nil
}

// Result is the outcome of one run.
type Result struct {
	// Cores holds per-core stats (runtime attribution, TLB, caches,
	// replay classification).
	Cores []stats.Stats
	// Mem holds memory-side stats (DRAM references by category,
	// row-buffer outcomes, TEMPO engine counters, DRAM commands).
	Mem stats.Stats
	// Total merges everything (Cycles = slowest core).
	Total stats.Stats
	// Superpage is each core's footprint fraction backed by 2MB/1GB
	// pages at end of run.
	Superpage []float64
	// Energy is the modelled energy of the run.
	Energy dram.Energy
	// TempoOn records whether TEMPO was enabled.
	TempoOn bool
	// Mechanism is the translation mechanism the run selected
	// explicitly via Config.Mech ("" for default runs, whose pipeline
	// is the tempo mechanism; see MECHANISMS.md).
	Mechanism string
	// MechCounters holds the mechanism's mech/<name>/* counters,
	// populated only for explicit Config.Mech runs (default runs stay
	// byte-identical on the wire for the result cache).
	MechCounters map[string]uint64
}

// IPC returns the run's aggregate instructions per cycle.
func (r *Result) IPC() float64 { return r.Total.IPC() }

// CoreIPC returns one core's IPC (cycles = that core's runtime).
func (r *Result) CoreIPC(i int) float64 { return r.Cores[i].IPC() }

// System is one assembled machine ready to run.
type System struct {
	cfg     Config
	machine Machine
	cores   []*Core
	ctrl    *dram.Controller
	mem     *memSys
	mst     *stats.Stats
	// mech is the run's translation mechanism (never nil after New;
	// the default is the tempo mechanism, which reproduces the
	// pre-mechanism wiring verbatim).
	mech translation.Mechanism
	// obs is the instrumentation layer Attach wires in (nil = disabled).
	obs *obsv.Observer
}

// New assembles a system from a configuration.
func New(cfg Config) (*System, error) {
	if len(cfg.Workloads) == 0 {
		return nil, errors.New("sim: no workloads configured")
	}
	if cfg.Records <= 0 {
		return nil, errors.New("sim: Records must be positive")
	}
	if err := cfg.Machine.validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, machine: cfg.Machine, mst: &stats.Stats{}}

	// Workload streams (generators or trace files), sizing physical
	// memory first.
	var gens []trace.Stream
	var footprints []uint64
	var totalFootprint uint64
	for i, spec := range cfg.Workloads {
		if spec.TracePath != "" {
			stream, err := openTraceStream(spec.TracePath)
			if err != nil {
				return nil, err
			}
			fp := spec.Footprint
			if fp == 0 {
				fp = workload.DefaultBigFootprint
			}
			gens = append(gens, stream)
			footprints = append(footprints, fp)
			totalFootprint += fp
			continue
		}
		seed := spec.Seed
		if seed == 0 {
			seed = cfg.Seed*1000 + int64(i) + 1
		}
		g, err := workload.New(spec.Name, workload.Config{FootprintBytes: spec.Footprint, Seed: seed})
		if err != nil {
			return nil, err
		}
		gens = append(gens, g)
		footprints = append(footprints, g.Footprint())
		totalFootprint += g.Footprint()
	}

	// Shared physical memory and per-core address spaces. Memhog
	// fragmentation is global: applied once, with the first space.
	if cfg.SharedAddressSpace {
		// Threads of one process share the data; physical memory only
		// needs to back one copy.
		totalFootprint = footprints[0]
	}
	buddy := vm.NewBuddy(cfg.physFrames(totalFootprint))
	var spaces []*vm.AddressSpace
	var readers core.MultiReader
	for i := range cfg.Workloads {
		if cfg.SharedAddressSpace && i > 0 {
			spaces = append(spaces, spaces[0])
			continue
		}
		nspaces := len(cfg.Workloads)
		if cfg.SharedAddressSpace {
			nspaces = 1
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
			return nil, fmt.Errorf("sim: core %d address space: %w", i, err)
		}
		spaces = append(spaces, as)
		readers = append(readers, as.Table())
	}

	// Memory controller with scheduler and TEMPO.
	dcfg := s.machine.DRAM
	dcfg.PTRowWait = cfg.Tempo.PTRowWait
	if !cfg.Tempo.Enabled {
		dcfg.PTRowWait = 0
	}
	if cfg.SubRows > 1 {
		dcfg.Geometry.SubRows = cfg.SubRows
		if cfg.Tempo.Enabled {
			dcfg.Geometry.PrefetchSubRows = cfg.PrefetchSubRows
		}
	}
	var scheduler dram.Scheduler
	switch cfg.Scheduler {
	case SchedBLISS:
		var b *sched.BLISS
		if cfg.Tempo.Enabled && cfg.Tempo.SchedulerAware {
			b = sched.NewTempoBLISS()
			b.PrefetchWeight = cfg.BLISSPrefetchWeight
			b.GracePeriod = cfg.BLISSGracePeriod
		} else {
			b = sched.NewBLISS()
		}
		scheduler = b
	default:
		if cfg.Tempo.Enabled && cfg.Tempo.SchedulerAware {
			scheduler = sched.NewTempoFRFCFS()
		} else {
			scheduler = sched.NewFRFCFS()
		}
	}
	s.ctrl = dram.NewController(dcfg, scheduler, s.mst)
	switch cfg.SubRowPolicy {
	case SubRowFOA:
		s.ctrl.SubAlloc = dram.NewFOA(len(cfg.Workloads))
	case SubRowPOA:
		s.ctrl.SubAlloc = dram.NewPOA(len(cfg.Workloads))
	}

	// Shared LLC and the memory-side fill path.
	llc := cache.New(s.machine.Caches.LLC)
	s.mem = &memSys{llc: llc, ctrl: s.ctrl, st: s.mst, tempoLLC: cfg.Tempo.LLCPrefetch}

	s.mem.pool = s.ctrl.Pool()

	// Translation mechanism (MECHANISMS.md): the factory wires itself
	// into the controller; the default tempo mechanism reproduces the
	// pre-mechanism TEMPO wiring verbatim (or nothing when Tempo is
	// off), so unset Mech stays bit-identical to the old pipeline.
	mech, err := translation.New(cfg.Mech, translation.Deps{
		Reader:   readers,
		MemStats: s.mst,
		Ctrl:     s.ctrl,
		Fill:     s.mem,
		Params: translation.Params{
			TempoEnabled: cfg.Tempo.Enabled,
			TempoLLC:     cfg.Tempo.LLCPrefetch,
			LLCFillExtra: s.machine.LLCFillExtra,
			Cores:        len(cfg.Workloads),
		},
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.mech = mech

	// Cores.
	for i := range cfg.Workloads {
		cst := &stats.Stats{}
		c := &Core{
			id:      i,
			sys:     s,
			as:      spaces[i],
			tlb:     tlb.New(s.machine.TLB),
			walker:  ptwalk.New(spaces[i].Table(), tlb.NewMMUCache(s.machine.MMU), cst),
			hier:    cache.NewHierarchyShared(s.machine.Caches, llc, cst),
			stream:  gens[i],
			st:      cst,
			records: cfg.Records,
			pool:    s.ctrl.Pool(),
		}
		if cfg.IMP {
			c.imp = prefetch.New(prefetch.DefaultConfig())
			// The ring models IMP's index-stream lead: Distance records
			// plus the one executing.
			c.lookahead = make([]trace.Record, prefetch.DefaultConfig().Distance+1)
		}
		if hooks := s.mech.NewCore(i, mechPort{c}); hooks != nil {
			c.mech = hooks
			c.walker.Mech = hooks
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Core scheduling states of the coordinator loop.
const (
	stReady = iota
	stParked
	stDone
)

// Run executes the configured number of records on every core and
// returns the collected results. It may be called once per System.
func (s *System) Run() (*Result, error) {
	n := len(s.cores)
	status := make([]int, n)
	waitReq := make([]*dram.Request, n)
	// clock is the coordinator's view of each core's time, used only
	// for picking the next core to run; the cores own their real
	// clocks (c.now).
	clock := make([]uint64, n)
	// Interval stats: flush a registry snapshot every IntervalEvery
	// completed records (summed across cores).
	var recordsDone, intervalEvery uint64
	if s.obs != nil {
		intervalEvery = s.obs.IntervalEvery
	}
	for {
		// Wake parked cores whose requests completed (possibly via
		// another core's drain).
		for i := range s.cores {
			if status[i] == stParked && waitReq[i].Done {
				status[i] = stReady
				clock[i] = waitReq[i].Complete
				waitReq[i] = nil
			}
		}
		// Resume the ready core with the smallest clock. step runs the
		// core inline up to its next yield point; exactly one core
		// executes at a time, preserving the deterministic interleaving
		// of the old goroutine-per-core coordinator.
		pick := -1
		for i := range s.cores {
			if status[i] == stReady && (pick < 0 || clock[i] < clock[pick]) {
				pick = i
			}
		}
		if pick >= 0 {
			// Run-ahead horizon: the largest clock at which the picked
			// core would still win this pick loop. Ties go to the lower
			// index, so against a lower-indexed ready core the picked
			// core must stay strictly below its clock (clock[j] >
			// clock[pick] here, so the decrement cannot underflow).
			// Parked cores are covered separately: step stops batching
			// the moment the controller completes a request a core is
			// parked on (the served-waiter count), and only this wake
			// loop can make them ready again.
			limit := ^uint64(0)
			for j := range s.cores {
				if j == pick || status[j] != stReady {
					continue
				}
				l := clock[j]
				if j < pick {
					l--
				}
				if l < limit {
					limit = l
				}
			}
			// Batch at most up to the next interval-stats boundary so
			// flushes happen at exactly the same record counts as
			// unbatched execution.
			budget := ^uint64(0)
			if intervalEvery > 0 {
				budget = intervalEvery - recordsDone%intervalEvery
			}
			c := s.cores[pick]
			st, req, n := c.step(limit, budget)
			recordsDone += n
			if intervalEvery > 0 && n > 0 && recordsDone%intervalEvery == 0 {
				if err := s.flushInterval(recordsDone); err != nil {
					return nil, fmt.Errorf("sim: interval stats: %w", err)
				}
			}
			switch st {
			case coreStep:
				clock[pick] = c.now
			case coreWait:
				status[pick] = stParked
				waitReq[pick] = req
			case coreDone:
				status[pick] = stDone
				if c.err != nil {
					return nil, c.err
				}
			}
			continue
		}
		// No core can run: either serve memory or we are finished.
		anyParked := false
		for i := range status {
			if status[i] == stParked {
				anyParked = true
				break
			}
		}
		if !anyParked {
			break
		}
		if s.ctrl.QueueLen() == 0 {
			return nil, errors.New("sim: deadlock — cores parked on an empty memory queue")
		}
		s.ctrl.ServeOne()
	}
	s.ctrl.Drain()
	// Late prefetch fills may evict dirty victims, which become write
	// transactions needing one more drain round.
	s.mem.ApplyFills(^uint64(0))
	s.ctrl.Drain()
	// Flush the final partial epoch so the series covers the whole run.
	if intervalEvery > 0 && recordsDone%intervalEvery != 0 {
		if err := s.flushInterval(recordsDone); err != nil {
			return nil, fmt.Errorf("sim: interval stats: %w", err)
		}
	}

	res := &Result{TempoOn: s.cfg.Tempo.Enabled}
	for _, c := range s.cores {
		c.st.Cycles = c.now
		// CPICycles sums under Stats.Add (Cycles maxes), making it the
		// per-core denominator the cpi-stack-sums-to-cycles law checks.
		c.st.CPICycles = c.now
		for cl, b := range c.as.FootprintBytes() {
			c.st.FootprintBytes[cl] = b
		}
		res.Cores = append(res.Cores, *c.st)
		res.Superpage = append(res.Superpage, c.as.SuperpageFraction())
	}
	res.Mem = *s.mst
	res.Total = res.Mem
	for i := range res.Cores {
		res.Total.Add(&res.Cores[i])
	}
	res.Energy = s.machine.Energy.Account(&res.Total, s.cfg.Tempo.Enabled)
	// Mechanism identity and counters are reported only for explicit
	// -mech runs: default configs keep their wire encoding (and thus
	// their result-cache entries) byte-identical to the pre-mechanism
	// simulator even though they run the tempo mechanism internally.
	if s.cfg.Mech != "" {
		res.Mechanism = s.mech.Name()
		res.MechCounters = map[string]uint64{}
		s.mech.CountersInto(func(name string, v uint64) {
			res.MechCounters[name] = v
		})
		res.Energy.MechJ = s.mech.EnergyJ()
	}
	return res, nil
}

// Run is the convenience one-shot: assemble and execute.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
