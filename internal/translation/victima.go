package translation

import (
	"errors"

	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/vm"
)

// Victima model parameters. The tag store is deliberately modest — the
// point of Victima (Kanellopoulos et al., MICRO 2023) is that the PTE
// *data* lives in the existing L2/LLC ways, so the dedicated hardware
// is only a tag array mapping virtual pages to the cache line that
// holds their leaf PTE. See MECHANISMS.md for the model and its
// deviations from the paper.
const (
	victimaWays = 8
	victimaSets = 512 // 4096 entries total per core
	// victimaTagLatency is the tag-array probe cost in cycles, charged
	// on every hit on top of the cache read that fetches the PTE line.
	victimaTagLatency = 2
	// victimaOpNJ is the modelled tag-array energy per probe/install,
	// in nanojoules (small dedicated SRAM; same order as an L1 probe).
	victimaOpNJ = 0.05
)

type victimaEntry struct {
	valid bool
	tr    vm.Translation
	line  mem.PAddr // cache line holding the leaf PTE
	lru   uint64
}

// victimaMech holds run-wide counters; the tag stores are per-core.
// The simulator runs one core at a time, so unsynchronized shared
// counters are safe.
type victimaMech struct {
	lookups   uint64
	pteHits   uint64
	pteMisses uint64
	evicted   uint64
	inserts   uint64
}

func init() {
	Register("victima", func(d Deps) (Mechanism, error) {
		if d.Params.TempoEnabled {
			return nil, errors.New("mechanism is exclusive of -tempo (one translation mechanism per run)")
		}
		return &victimaMech{}, nil
	})
}

// victimaCore is one core's tag store plus the armed capture window
// that pairs a demand walk's leaf step with its completion. The walker
// is shared with background IMP walks, but those are issued before the
// TLB lookup of the same record, so between a missing OnTLBMiss and
// its OnWalkComplete only the demand walk's steps flow through it.
type victimaCore struct {
	m    *victimaMech
	port CorePort
	sets [victimaSets][victimaWays]victimaEntry
	tick uint64

	armed    bool
	leafSeen bool
	leafLine mem.PAddr
}

func (m *victimaMech) Name() string { return "victima" }

func (m *victimaMech) NewCore(coreID int, port CorePort) CoreHooks {
	return &victimaCore{m: m, port: port}
}

func (m *victimaMech) Attach(rec *obsv.Recorder) {}

func (m *victimaMech) CountersInto(emit func(string, uint64)) {
	emit(MetricVictimaLookups, m.lookups)
	emit(MetricVictimaPTEHits, m.pteHits)
	emit(MetricVictimaPTEMisses, m.pteMisses)
	emit(MetricVictimaEvicted, m.evicted)
	emit(MetricVictimaInserts, m.inserts)
}

func (m *victimaMech) EnergyJ() float64 {
	return float64(m.lookups+m.inserts) * victimaOpNJ * 1e-9
}

// victimaSet indexes the tag store by page base and size class. The
// three probes per lookup mirror a hash-per-size TLB organization.
func victimaSet(base mem.VAddr, cls mem.PageSizeClass) uint64 {
	h := uint64(base) >> mem.PageShift
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	return (h ^ uint64(cls)*0xBF58476D1CE4E5B9) >> 48 % victimaSets
}

// OnTLBMiss probes the tag store for any page size covering v. A hit
// whose PTE line is still on-chip resolves the translation with a real
// hierarchy read (no walk); a hit whose line has been evicted drops
// the entry — Victima's PTEs live or die with cache residency.
func (c *victimaCore) OnTLBMiss(v mem.VAddr, now uint64) Action {
	c.m.lookups++
	for cls := mem.Page4K; cls <= mem.Page1G; cls++ {
		base := v.PageBase(cls)
		set := &c.sets[victimaSet(base, cls)]
		for w := range set {
			e := &set[w]
			if !e.valid || e.tr.Class != cls || e.tr.VBase != base {
				continue
			}
			if !c.port.PeekOnChip(e.line) {
				c.m.evicted++
				e.valid = false
				continue
			}
			c.m.pteHits++
			c.tick++
			e.lru = c.tick
			lat := c.port.ReadLine(e.line, now) + victimaTagLatency
			return Action{Hit: true, Translation: e.tr, Latency: lat}
		}
	}
	c.m.pteMisses++
	c.armed = true
	c.leafSeen = false
	return Action{}
}

func (c *victimaCore) OnWalkStep(step vm.WalkStep, fromDRAM bool) {
	if c.armed && step.IsLeaf {
		c.leafLine = step.PTEAddr.Line()
		c.leafSeen = true
	}
}

// OnWalkComplete installs the walk's leaf PTE line into the tag store.
func (c *victimaCore) OnWalkComplete(v mem.VAddr, tr vm.Translation, leafFromDRAM bool, now uint64) {
	if !c.armed {
		return
	}
	c.armed = false
	if !c.leafSeen {
		return
	}
	c.m.inserts++
	c.tick++
	set := &c.sets[victimaSet(tr.VBase, tr.Class)]
	victim := &set[0]
	for w := range set {
		e := &set[w]
		if e.valid && e.tr.Class == tr.Class && e.tr.VBase == tr.VBase {
			victim = e
			break
		}
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = victimaEntry{valid: true, tr: tr, line: c.leafLine, lru: c.tick}
}

func (c *victimaCore) OnPrefetchUseful() {}
