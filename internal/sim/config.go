// Package sim assembles the full TEMPO system — address spaces, TLBs,
// walkers, caches, the DRAM controller with the TEMPO engine, and one
// trace-replay core per workload — and executes runs. Multi-core runs
// share the LLC, physical memory and memory controller; a deterministic
// coordinator interleaves cores in timestamp order and drives the
// memory scheduler whenever every core is blocked on DRAM, which is
// what lets FR-FCFS/BLISS reordering and TEMPO's transaction-queue
// policies act on realistically deep queues.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// SchedulerKind selects the memory scheduler.
type SchedulerKind uint8

const (
	// SchedFRFCFS is first-ready FCFS (the main-results scheduler).
	SchedFRFCFS SchedulerKind = iota
	// SchedBLISS is the blacklisting fairness scheduler.
	SchedBLISS
)

// SubRowPolicyKind selects how sub-row buffers are partitioned.
type SubRowPolicyKind uint8

const (
	// SubRowShared leaves sub-rows in a common pool (minus TEMPO's
	// prefetch reservation).
	SubRowShared SubRowPolicyKind = iota
	// SubRowFOA uses Fairness-Oriented Allocation.
	SubRowFOA
	// SubRowPOA uses Performance-Oriented Allocation.
	SubRowPOA
)

// Machine collects the microarchitectural parameters (the simulator's
// stand-in for the paper's Figure 9).
type Machine struct {
	TLB    tlb.Config
	MMU    tlb.MMUCacheConfig
	Caches cache.HierarchyConfig
	DRAM   dram.Config
	Energy dram.EnergyModel

	// NonMemIPC is how many non-memory instructions retire per cycle.
	NonMemIPC int
	// L2TLBPenalty is the extra latency of an STLB hit.
	L2TLBPenalty uint64
	// ReplayRestart is the TLB-fill plus pipeline-replay latency
	// between walk completion and the replay's first cache lookup —
	// the source of TEMPO's slack window (the paper cites 120+ cycles
	// for the full restart-to-LLC-lookup path on Skylake).
	ReplayRestart uint64
	// Interconnect is the one-way on-chip latency between the LLC and
	// the memory controller.
	Interconnect uint64
	// LLCFillExtra is the latency from DRAM completion until a
	// prefetched line is usable in the LLC.
	LLCFillExtra uint64
	// OtherOverlap is the fraction of an independent demand miss's
	// DRAM time that stalls the core: an out-of-order window overlaps
	// part of such misses with useful work, whereas a TLB miss (and
	// the walk + replay behind it) serialises the pipeline — the
	// asymmetry the paper's motivation rests on.
	OtherOverlap float64
}

// DefaultMachine returns the configuration from DESIGN.md.
func DefaultMachine() Machine {
	return Machine{
		TLB:           tlb.DefaultConfig(),
		MMU:           tlb.DefaultMMUCacheConfig(),
		Caches:        cache.DefaultHierarchyConfig(),
		DRAM:          dram.DefaultConfig(),
		Energy:        dram.DefaultEnergyModel(),
		NonMemIPC:     2,
		L2TLBPenalty:  9,
		ReplayRestart: 90,
		Interconnect:  20,
		LLCFillExtra:  25,
		OtherOverlap:  0.42,
	}
}

// validate rejects machine parameters the simulator cannot run with:
// TLB, page-walk-cache, cache and DRAM geometries their own packages
// cannot build; a NonMemIPC below 1, which divides every record's
// instruction gap; and an OtherOverlap outside [0, 1], where the DRAM
// stall charge wraps around.
func (m *Machine) validate() error {
	for _, g := range [...]struct {
		field string
		err   error
	}{
		{"TLB", m.TLB.Validate()},
		{"MMU", m.MMU.Validate()},
		{"Caches.L1", m.Caches.L1.Validate()},
		{"Caches.L2", m.Caches.L2.Validate()},
		{"Caches.LLC", m.Caches.LLC.Validate()},
		{"DRAM.Geometry", m.DRAM.Geometry.Validate()},
	} {
		if g.err != nil {
			return fmt.Errorf("sim: Machine.%s.%w", g.field, g.err)
		}
	}
	if m.NonMemIPC < 1 {
		return fmt.Errorf("sim: Machine.NonMemIPC must be at least 1, got %d", m.NonMemIPC)
	}
	if !(m.OtherOverlap >= 0 && m.OtherOverlap <= 1) {
		return fmt.Errorf("sim: Machine.OtherOverlap must be in [0, 1], got %v", m.OtherOverlap)
	}
	return nil
}

// WorkloadSpec is one core's workload: either a named synthetic
// generator or a recorded trace file (TracePath set).
type WorkloadSpec struct {
	Name string
	// Footprint overrides the workload default when non-zero. For
	// trace files it sizes physical memory (default: the span of
	// addresses the trace touches is unknown up front, so set it to
	// the footprint the trace was generated with).
	Footprint uint64
	// Seed varies the trace (defaults to 1 + core index).
	Seed int64
	// TracePath, when set, replays a trace captured by tempo-trace
	// instead of running the named generator.
	TracePath string
}

// TempoConfig switches the paper's mechanism and its ablations.
type TempoConfig struct {
	// Enabled turns the whole mechanism on (walker tagging is always
	// present; the controller only acts when enabled).
	Enabled bool
	// LLCPrefetch enables the LLC half of the prefetch; false leaves
	// only row-buffer prefetching (an ablation the paper's Figure 11
	// implies).
	LLCPrefetch bool
	// PTRowWait is the Figure 15 design point (cycles).
	PTRowWait uint64
	// SchedulerAware enables the Section 4.3 transaction-queue
	// policies (PT grouping, prefetch bonding, grace periods) in the
	// memory scheduler. Off leaves the baseline scheduler untouched —
	// an ablation of TEMPO's scheduling half.
	SchedulerAware bool
}

// DefaultTempo returns the paper's configuration: both prefetch
// destinations, 10-cycle PT-row wait.
func DefaultTempo() TempoConfig {
	return TempoConfig{Enabled: true, LLCPrefetch: true, PTRowWait: 10, SchedulerAware: true}
}

// OSPolicy selects the paging configuration (Figure 13's axis).
type OSPolicy struct {
	Mode            vm.PageMode
	MemhogFraction  float64
	THPEligibility  float64
	ReserveFraction float64
}

// DefaultOSPolicy is THP with no artificial fragmentation — the
// paper's main-results setting.
func DefaultOSPolicy() OSPolicy {
	return OSPolicy{Mode: vm.ModeTHP, THPEligibility: 0.62, ReserveFraction: 0.80}
}

// Config is one complete run description.
type Config struct {
	Workloads []WorkloadSpec
	// Records is the trace length per core.
	Records int
	Machine Machine
	OS      OSPolicy
	// PhysFrames overrides the physical memory size (default: twice
	// the summed footprint).
	PhysFrames uint64

	Tempo TempoConfig
	// IMP enables the indirect prefetcher on every core.
	IMP bool

	// Mech selects the translation-path mechanism by registry name
	// (internal/translation; see MECHANISMS.md). Empty selects "tempo" —
	// the pre-mechanism pipeline, bit-identical to it — so the field is
	// omitted from the cache-hash JSON for unset configs and existing
	// cached results keep their keys. Rival mechanisms ("victima",
	// "revelator") require Tempo.Enabled to be false.
	Mech string `json:"Mech,omitempty"`

	Scheduler SchedulerKind
	// BLISSPrefetchWeight is the streak increment for TEMPO
	// prefetches (demand weight is 2); only used with SchedBLISS.
	BLISSPrefetchWeight int
	// BLISSGracePeriod is the post-prefetch stream-stickiness.
	BLISSGracePeriod uint64

	// SubRows > 1 splits each row buffer; PrefetchSubRows reserves
	// the first ones for TEMPO.
	SubRows         int
	PrefetchSubRows int
	SubRowPolicy    SubRowPolicyKind

	// SharedAddressSpace makes every core share core 0's address
	// space and page table — a multithreaded application (the paper's
	// workloads are multithreaded on a 32-core machine). Distinct
	// per-core seeds still give each "thread" its own access stream
	// over the shared data.
	SharedAddressSpace bool

	// Seed namespaces all derived seeds (OS, workloads).
	Seed int64

	// Workers is ignored: the simulator always runs one serial
	// coordinator. It is part of the benchmark compatibility shim
	// (compat.go) and stays out of the cache-hashed JSON.
	Workers int `json:"-"`
}

// DefaultConfig builds a single-core run of the named workload with
// the baseline machine (TEMPO off).
func DefaultConfig(workload string) Config {
	return Config{
		Workloads:           []WorkloadSpec{{Name: workload}},
		Records:             200_000,
		Machine:             DefaultMachine(),
		OS:                  DefaultOSPolicy(),
		Scheduler:           SchedFRFCFS,
		BLISSPrefetchWeight: 1,
		BLISSGracePeriod:    15,
		Seed:                1,
	}
}

// physFrames returns the modelled physical memory size in frames.
func (c *Config) physFrames(totalFootprint uint64) uint64 {
	if c.PhysFrames != 0 {
		return c.PhysFrames
	}
	frames := 2 * totalFootprint / mem.PageSize
	const min = 1 << 16 // 256MB floor
	if frames < min {
		return min
	}
	return frames
}
