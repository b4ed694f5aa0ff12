package tlb

import (
	"fmt"

	"repro/internal/assoc"
	"repro/internal/mem"
)

// MMUCache models the per-level page-walk caches (Intel's paging
// structure caches): small arrays holding entries from the L4, L3 and
// L2 page tables. A hit at level L hands the walker the physical frame
// of the level L-1 table, letting it skip the upper reads entirely.
// As the paper notes, these are roughly 32× smaller than the TLBs yet
// enjoy high hit rates because upper-level entries map huge regions.
type MMUCache struct {
	// byLevel[l-2] caches entries read from the level-l page table
	// (l = 4, 3, 2): key is the VA prefix covering indices 4..l,
	// value is the frame of the level l-1 table.
	byLevel [3]*assoc.Assoc[mem.Frame]
}

// MMUCacheConfig sizes the per-level arrays.
type MMUCacheConfig struct {
	// Entries[l-2] is the capacity for entries from the level-l PT.
	L4, L3, L2 Geometry
}

// DefaultMMUCacheConfig returns a Skylake-like configuration.
func DefaultMMUCacheConfig() MMUCacheConfig {
	return MMUCacheConfig{
		L4: Geometry{Sets: 1, Ways: 4},
		L3: Geometry{Sets: 1, Ways: 8},
		L2: Geometry{Sets: 8, Ways: 4},
	}
}

// Validate reports the first per-level geometry the page-walk caches
// cannot be built with; the error text begins with its field path
// ("L3.Sets").
func (cfg MMUCacheConfig) Validate() error {
	for i, g := range [...]Geometry{cfg.L4, cfg.L3, cfg.L2} {
		if err := assoc.CheckGeometry(g.Sets, g.Ways); err != nil {
			return fmt.Errorf("L%d.%w", 4-i, err)
		}
	}
	return nil
}

// NewMMUCache builds the page-walk caches.
func NewMMUCache(cfg MMUCacheConfig) *MMUCache {
	return &MMUCache{byLevel: [3]*assoc.Assoc[mem.Frame]{
		assoc.New[mem.Frame](cfg.L2.Sets, cfg.L2.Ways),
		assoc.New[mem.Frame](cfg.L3.Sets, cfg.L3.Ways),
		assoc.New[mem.Frame](cfg.L4.Sets, cfg.L4.Ways),
	}}
}

// prefix returns the VA bits that index page-table levels 4..l — the
// tag for an entry read from the level-l table.
func prefix(v mem.VAddr, level int) uint64 {
	shift := mem.PageShift + uint(level-1)*mem.LevelBits
	return uint64(v) >> shift
}

// Lookup searches for the deepest cached entry covering v, trying the
// L2-PT cache first (skips the most levels). On a hit it returns the
// level whose table was read (2, 3 or 4) and the frame of the next
// (level-1) table; the walker resumes at level-1.
func (m *MMUCache) Lookup(v mem.VAddr) (level int, next mem.Frame, ok bool) {
	for l := 2; l <= 4; l++ {
		if f, hit := m.byLevel[l-2].Lookup(prefix(v, l)); hit {
			return l, f, true
		}
	}
	return 0, 0, false
}

// Insert caches a non-leaf entry read from the level-l table (l in
// 2..4) whose payload is the frame of the level l-1 table.
func (m *MMUCache) Insert(v mem.VAddr, level int, next mem.Frame) {
	if level < 2 || level > 4 {
		panic("tlb: MMU cache level must be 2..4")
	}
	m.byLevel[level-2].Insert(prefix(v, level), next)
}

// Flush empties all levels.
func (m *MMUCache) Flush() {
	for _, a := range m.byLevel {
		a.Flush()
	}
}
