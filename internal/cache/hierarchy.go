package cache

import (
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/stats"
)

// Served identifies the level that satisfied an access.
type Served uint8

const (
	// ServedL1 is a first-level hit.
	ServedL1 Served = iota
	// ServedL2 is a second-level hit.
	ServedL2
	// ServedLLC is a last-level hit.
	ServedLLC
	// ServedDRAM means every level missed; the caller must perform a
	// DRAM access and then call FillFromDRAM.
	ServedDRAM
)

// String implements fmt.Stringer.
func (s Served) String() string {
	switch s {
	case ServedL1:
		return "L1"
	case ServedL2:
		return "L2"
	case ServedLLC:
		return "LLC"
	default:
		return "DRAM"
	}
}

// AccessResult summarises one hierarchy access.
type AccessResult struct {
	Served  Served
	Latency uint64
	// Provenance of the line at the serving level (meaningful for
	// LLC hits: FillTempo means a TEMPO prefetch was consumed).
	Provenance Provenance
	// Writebacks are the dirty LLC victims this access pushed toward
	// DRAM: dirty evictions cascade L1→L2→LLC, and lines falling out
	// of the LLC become memory write transactions. The slice aliases a
	// per-Hierarchy scratch buffer: it is valid only until the next
	// Access on the same hierarchy and must not be retained.
	Writebacks []mem.PAddr
}

// HierarchyConfig sizes the three levels.
type HierarchyConfig struct {
	L1, L2, LLC Config
}

// DefaultHierarchyConfig returns the scaled Skylake-like hierarchy
// described in DESIGN.md: 32KB/8w L1, 256KB/8w L2, 4MB/16w LLC.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:  Config{Name: "L1D", SizeB: 32 << 10, Ways: 8, LatencyC: 4},
		L2:  Config{Name: "L2", SizeB: 256 << 10, Ways: 8, LatencyC: 14},
		LLC: Config{Name: "LLC", SizeB: 4 << 20, Ways: 16, LatencyC: 42},
	}
}

// Hierarchy is one core's view of the cache system: private L1 and L2
// plus an LLC that may be shared with other cores' hierarchies.
type Hierarchy struct {
	L1, L2 *Cache
	LLC    *Cache
	st     *stats.Stats

	// wbAccess and wbFill are reusable writeback scratch buffers —
	// demand accesses and DRAM fills each produce at most a handful of
	// victims, and allocating a slice per access dominated the per-
	// record allocation count. Two buffers because a blocked access
	// (miss → DRAM → FillFromDRAM) has both paths live at once.
	wbAccess, wbFill []mem.PAddr

	// WBBurst, when non-nil, histograms how many dirty LLC victims each
	// DRAM fill pushed toward memory — write-pressure visibility the
	// end-of-run writeback total averages away. Nil-safe obsv hook.
	WBBurst *obsv.Histogram
}

// NewHierarchy builds private L1/L2 and a private LLC.
func NewHierarchy(cfg HierarchyConfig, st *stats.Stats) *Hierarchy {
	return NewHierarchyShared(cfg, New(cfg.LLC), st)
}

// NewHierarchyShared builds private L1/L2 around an existing shared LLC.
func NewHierarchyShared(cfg HierarchyConfig, llc *Cache, st *stats.Stats) *Hierarchy {
	return &Hierarchy{
		L1:  New(cfg.L1),
		L2:  New(cfg.L2),
		LLC: llc,
		st:  st,
	}
}

// Access performs a demand access (read or write) for the line holding
// p. On an on-chip hit the line is promoted into the upper levels. On
// a full miss the caller must access DRAM and then call FillFromDRAM.
func (h *Hierarchy) Access(p mem.PAddr, write bool) AccessResult {
	if hit, _ := h.L1.Access(p, write); hit {
		h.st.L1Hits++
		return AccessResult{Served: ServedL1, Latency: h.L1.Latency()}
	}
	h.st.L1Misses++
	if hit, _ := h.L2.Access(p, write); hit {
		h.st.L2Hits++
		h.wbAccess = h.fillL1(h.wbAccess[:0], p, write)
		return AccessResult{Served: ServedL2, Latency: h.L2.Latency(),
			Writebacks: h.wbAccess}
	}
	h.st.L2Misses++
	if hit, prov := h.LLC.Access(p, write); hit {
		h.st.LLCHits++
		wb := h.fillL2(h.wbAccess[:0], p, false)
		wb = h.fillL1(wb, p, write)
		h.wbAccess = wb
		return AccessResult{
			Served: ServedLLC, Latency: h.LLC.Latency(),
			Provenance: prov, Writebacks: wb,
		}
	}
	h.st.LLCMisses++
	return AccessResult{Served: ServedDRAM, Latency: h.LLC.Latency()}
}

// FillFromDRAM installs a line that just arrived from memory into all
// three levels and returns the dirty LLC victims bound for DRAM. The
// returned slice aliases a per-Hierarchy scratch buffer: it is valid
// only until the next fill and must not be retained.
func (h *Hierarchy) FillFromDRAM(p mem.PAddr, write bool) []mem.PAddr {
	wb := h.fillLLC(h.wbFill[:0], p, FillDemand, false)
	wb = h.fillL2(wb, p, false)
	wb = h.fillL1(wb, p, write)
	h.wbFill = wb
	h.WBBurst.Observe(uint64(len(wb)))
	return wb
}

// FillPrefetch installs a prefetched line into the LLC only — exactly
// what TEMPO's memory controller does (the replay then finds it there).
// IMP prefetches also land here with their own provenance. It returns
// any dirty victim bound for DRAM; the slice aliases the same scratch
// buffer as FillFromDRAM.
func (h *Hierarchy) FillPrefetch(p mem.PAddr, prov Provenance) []mem.PAddr {
	if h.LLC.Contains(p) {
		return nil
	}
	h.wbFill = h.fillLLC(h.wbFill[:0], p, prov, false)
	return h.wbFill
}

// PeekLLC reports whether the line is resident in the LLC without
// disturbing any state (used to classify replay outcomes).
func (h *Hierarchy) PeekLLC(p mem.PAddr) bool { return h.LLC.Contains(p) }

// fillL1/fillL2/fillLLC install a line at one level, cascading any
// dirty victim into the level below; dirty LLC victims are appended to
// wb and the extended slice returned.
func (h *Hierarchy) fillL1(wb []mem.PAddr, p mem.PAddr, dirty bool) []mem.PAddr {
	if v, evicted := h.L1.Fill(p, FillDemand, dirty); evicted && v.Dirty {
		return h.fillL2(wb, v.Addr, true)
	}
	return wb
}

func (h *Hierarchy) fillL2(wb []mem.PAddr, p mem.PAddr, dirty bool) []mem.PAddr {
	if v, evicted := h.L2.Fill(p, FillDemand, dirty); evicted && v.Dirty {
		return h.fillLLC(wb, v.Addr, FillDemand, true)
	}
	return wb
}

func (h *Hierarchy) fillLLC(wb []mem.PAddr, p mem.PAddr, prov Provenance, dirty bool) []mem.PAddr {
	if v, evicted := h.LLC.Fill(p, prov, dirty); evicted && v.Dirty {
		return append(wb, v.Addr)
	}
	return wb
}
