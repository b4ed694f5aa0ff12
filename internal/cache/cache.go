// Package cache models the on-chip cache hierarchy: generic
// set-associative write-back caches with LRU replacement, composed
// into a per-core L1/L2 plus (possibly shared) LLC hierarchy. The LLC
// is where TEMPO's prefetched replay data lands, so lines carry a
// prefetch provenance tag that lets the simulator classify replay
// service points (Figure 11) and prefetch usefulness.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// Provenance records how a line entered the cache.
type Provenance uint8

const (
	// FillDemand is an ordinary demand fill.
	FillDemand Provenance = iota
	// FillTempo is a TEMPO post-translation prefetch.
	FillTempo
	// FillIMP is an IMP indirect prefetch.
	FillIMP
	// FillSpec is a speculative-translation prefetch issued by a rival
	// mechanism (internal/translation, e.g. revelator).
	FillSpec
)

// Replacement selects the victim-choice policy.
type Replacement uint8

const (
	// ReplaceLRU is true least-recently-used replacement.
	ReplaceLRU Replacement = iota
	// ReplaceSRRIP is static re-reference interval prediction with
	// 2-bit RRPVs (Jaleel et al.): scan-resistant, and it inserts
	// prefetched lines at a distant interval so speculative fills
	// cannot sweep the reused working set.
	ReplaceSRRIP
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "LRU"
	case ReplaceSRRIP:
		return "SRRIP"
	default:
		return "Replacement(?)"
	}
}

// invalidTag marks an empty way. Tags are the line address with the
// set-index bits stripped, so the all-ones pattern would need a
// physical address of at least 2^38 bytes (per 64-set cache) — far
// beyond any modelled memory; New rejects geometries where a real tag
// could reach it and index panics should an address overflow one.
const invalidTag = ^uint32(0)

// Cache is one set-associative write-back cache level. Each way's tag
// and LRU stamp are packed into one uint64 (tag high, stamp low), so
// the victim scan — which needs both — walks a single contiguous
// array: a whole 8-way set's state is one host cache line instead of
// spanning separate tag and stamp arrays.
type Cache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	setShift uint
	latency  uint64
	replace  Replacement
	tick     uint32
	lines    []uint64 // tag<<32 | stamp; invalidTag<<32 = empty way
	meta     []uint8  // dirty bit + RRPV + provenance, packed

	// Hits and Misses count demand lookups.
	Hits, Misses uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// meta byte layout: bit 0 dirty, bits 1-2 RRPV, bits 3-4 provenance.
// One byte per line keeps the fill/hit bookkeeping to a single array
// write instead of three.
const (
	metaDirtyBit  = 1 << 0
	metaRrpvShift = 1
	metaProvShift = 3
)

// Config describes one cache level.
type Config struct {
	Name     string
	SizeB    uint64 // total capacity in bytes
	Ways     int
	LatencyC uint64 // total load-to-use latency in cycles
	// Replace selects the replacement policy (default LRU).
	Replace Replacement
}

// Validate reports why a cache cannot be built from cfg: Ways must be
// positive and SizeB a power-of-two number of sets of Ways × 64B
// lines. The error text begins with the offending field's name, so a
// caller can prefix the config's own path.
func (cfg Config) Validate() error {
	lines := cfg.SizeB / mem.LineSize
	switch {
	case cfg.Ways <= 0:
		return fmt.Errorf("Ways must be positive, got %d", cfg.Ways)
	case cfg.SizeB == 0 || cfg.SizeB%mem.LineSize != 0:
		return fmt.Errorf("SizeB must be a positive multiple of %dB lines, got %d", mem.LineSize, cfg.SizeB)
	case lines%uint64(cfg.Ways) != 0:
		return fmt.Errorf("Ways must divide the %d lines of SizeB, got %d", lines, cfg.Ways)
	case bits.OnesCount64(lines/uint64(cfg.Ways)) != 1:
		return fmt.Errorf("SizeB must hold a power-of-two number of %d-way sets, got %d sets", cfg.Ways, lines/uint64(cfg.Ways))
	}
	return nil
}

// New builds a cache. It panics on a geometry Validate rejects.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache %q: %v", cfg.Name, err))
	}
	sets := int(cfg.SizeB/mem.LineSize) / cfg.Ways
	setShift := uint(0)
	for 1<<setShift < sets {
		setShift++
	}
	n := sets * cfg.Ways
	c := &Cache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: setShift,
		latency:  cfg.LatencyC,
		replace:  cfg.Replace,
		lines:    make([]uint64, n),
		meta:     make([]uint8, n),
	}
	for i := range c.lines {
		c.lines[i] = uint64(invalidTag) << 32
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.name }

// Latency returns the load-to-use hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) index(p mem.PAddr) (base int, set uint64, tag uint32) {
	lineAddr := uint64(p) >> mem.LineShift
	set = lineAddr & c.setMask
	t := lineAddr >> c.setShift
	if t >= uint64(invalidTag) {
		panic(fmt.Sprintf("cache %q: physical address %#x exceeds the representable tag range", c.name, uint64(p)))
	}
	return int(set) * c.ways, set, uint32(t)
}

// lineAddrOf reconstructs the full line address of the way at index i
// (holding tag) in the given set.
func (c *Cache) lineAddrOf(set uint64, tag uint32) uint64 {
	return uint64(tag)<<c.setShift | set
}

// nextStamp advances the LRU clock. Stamps are 32-bit so they pack
// beside the tag in one word; when the clock nears wraparound the
// live stamps are renumbered to 1..k in place.
func (c *Cache) nextStamp() uint32 {
	if c.tick == ^uint32(0)-1 {
		c.compressStamps()
	}
	c.tick++
	return c.tick
}

// compressStamps renumbers the stamps of valid lines to 1..k,
// preserving their relative order exactly. Victim selection compares
// stamps only with <, so the renumbering cannot change any replacement
// decision. Invalid ways reset to 0; their stamps are never consulted
// because an empty way preempts the LRU scan. Runs once per ~4 billion
// touches, so the sort amortizes to nothing.
func (c *Cache) compressStamps() {
	idx := make([]int, 0, len(c.lines))
	for i, e := range c.lines {
		if uint32(e>>32) != invalidTag {
			idx = append(idx, i)
		} else {
			c.lines[i] = uint64(invalidTag) << 32
		}
	}
	sort.Slice(idx, func(a, b int) bool { return uint32(c.lines[idx[a]]) < uint32(c.lines[idx[b]]) })
	for r, i := range idx {
		c.lines[i] = c.lines[i]&^uint64(^uint32(0)) | uint64(r+1)
	}
	c.tick = uint32(len(idx))
}

// Access looks up the line holding p, updating LRU and hit/miss
// counters. On a hit it returns true plus the line's provenance, and
// demotes the provenance to FillDemand (a prefetched line is counted
// useful only once). Write hits mark the line dirty.
func (c *Cache) Access(p mem.PAddr, write bool) (bool, Provenance) {
	base, _, tag := c.index(p)
	for i := base; i < base+c.ways; i++ {
		e := c.lines[i]
		if uint32(e>>32) == tag {
			c.lines[i] = e&^uint64(^uint32(0)) | uint64(c.nextStamp())
			m := c.meta[i]
			prov := Provenance(m >> metaProvShift & 3)
			// SRRIP: near re-reference on a hit (RRPV 0); provenance
			// demotes to FillDemand; a write marks the line dirty.
			m &= metaDirtyBit
			if write {
				m |= metaDirtyBit
			}
			c.meta[i] = m
			c.Hits++
			return true, prov
		}
	}
	c.Misses++
	return false, FillDemand
}

// Contains peeks for p without disturbing LRU or counters.
func (c *Cache) Contains(p mem.PAddr) bool {
	base, _, tag := c.index(p)
	for i := base; i < base+c.ways; i++ {
		if uint32(c.lines[i]>>32) == tag {
			return true
		}
	}
	return false
}

// Victim describes an eviction caused by a fill.
type Victim struct {
	Addr  mem.PAddr
	Dirty bool
}

// Fill installs the line holding p with the given provenance, evicting
// the LRU way if the set is full. It returns the victim, if any. A
// line that is already resident is refreshed in place and keeps its
// existing provenance: prefetching something already cached earns no
// usefulness credit.
func (c *Cache) Fill(p mem.PAddr, prov Provenance, dirty bool) (Victim, bool) {
	base, set, tag := c.index(p)
	// One fused scan finds a resident copy, the first empty way and the
	// LRU way together; inserting never duplicates a tag within a set,
	// so stopping at the first match loses nothing.
	firstFree, lru := -1, base
	for i := base; i < base+c.ways; i++ {
		e := c.lines[i]
		t := uint32(e >> 32)
		if t == tag {
			c.lines[i] = e&^uint64(^uint32(0)) | uint64(c.nextStamp())
			if dirty {
				c.meta[i] |= metaDirtyBit
			}
			return Victim{}, false
		}
		if t == invalidTag {
			if firstFree < 0 {
				firstFree = i
			}
		} else if uint32(e) < uint32(c.lines[lru]) {
			lru = i
		}
	}
	victim := firstFree
	if victim < 0 {
		victim = lru
		if c.replace == ReplaceSRRIP {
			victim = c.srripVictim(base)
		}
	}
	var out Victim
	evicted := false
	if vt := uint32(c.lines[victim] >> 32); vt != invalidTag {
		vd := c.meta[victim]&metaDirtyBit != 0
		out = Victim{Addr: mem.PAddr(c.lineAddrOf(set, vt) << mem.LineShift), Dirty: vd}
		evicted = true
		if vd {
			c.Writebacks++
		}
	}
	s := c.nextStamp()
	rrpv := uint8(2) // SRRIP: long re-reference interval on insertion
	if prov != FillDemand {
		rrpv = 3 // prefetches insert at a distant interval
	}
	m := rrpv<<metaRrpvShift | uint8(prov)<<metaProvShift
	if dirty {
		m |= metaDirtyBit
	}
	c.lines[victim] = uint64(tag)<<32 | uint64(s)
	c.meta[victim] = m
	return out, evicted
}

// srripVictim runs SRRIP victim selection on a full set: evict the
// first way at the distant interval (RRPV 3), aging the whole set
// until one reaches it. Computed in one pass instead of repeated
// aging sweeps — the first way holding the set's maximum RRPV is the
// first to reach 3, and every way ages by the same shortfall.
func (c *Cache) srripVictim(base int) int {
	maxI, maxV := base, c.meta[base]>>metaRrpvShift&3
	if maxV >= 3 {
		return base
	}
	for i := base + 1; i < base+c.ways; i++ {
		r := c.meta[i] >> metaRrpvShift & 3
		if r >= 3 {
			return i
		}
		if r > maxV {
			maxI, maxV = i, r
		}
	}
	// Every RRPV in the set is at most maxV, so adding the shortfall
	// cannot carry out of the packed field.
	age := 3 - maxV
	for i := base; i < base+c.ways; i++ {
		c.meta[i] += age << metaRrpvShift
	}
	return maxI
}

// Invalidate drops the line holding p if present, returning whether it
// was present and dirty.
func (c *Cache) Invalidate(p mem.PAddr) (present, dirty bool) {
	base, _, tag := c.index(p)
	for i := base; i < base+c.ways; i++ {
		if uint32(c.lines[i]>>32) == tag {
			c.lines[i] = uint64(invalidTag) << 32
			return true, c.meta[i]&metaDirtyBit != 0
		}
	}
	return false, false
}

// Flush empties the cache, returning the number of dirty lines dropped.
func (c *Cache) Flush() uint64 {
	var dirty uint64
	for i := range c.lines {
		if uint32(c.lines[i]>>32) != invalidTag && c.meta[i]&metaDirtyBit != 0 {
			dirty++
		}
		c.lines[i] = uint64(invalidTag) << 32
	}
	return dirty
}
