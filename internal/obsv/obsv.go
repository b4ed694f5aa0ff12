// Package obsv is the simulator's instrumentation layer: request-level
// event tracing and a hierarchical counter/histogram registry, both
// designed to cost nothing when disabled.
//
// The layer has two halves:
//
//   - A Recorder captures per-request lifecycle events — TLB lookups,
//     page-walk steps, MMU-cache probes, leaf-PTE DRAM reads, TEMPO
//     prefetch issues, replay hits and misses, DRAM bank activity —
//     into a fixed-capacity ring buffer of plain-data Events, and
//     exports them as Chrome trace-event JSON loadable in Perfetto
//     (see WriteChromeTrace).
//
//   - A Registry names Counters, Histograms (power-of-two latency
//     buckets, no allocations on the record path) and lazy Gauges in a
//     slash-separated hierarchy ("core0/walk/latency"), and snapshots
//     them for interval time series (see Snapshot and its Delta).
//
// Every record-path entry point is nil-safe: a component holds plain
// pointers (possibly nil) and calls methods on them unconditionally,
// so the disabled path is a pointer test — no interface dispatch, no
// boxing, no allocation. OBSERVABILITY.md documents the event schema
// and how the counters map onto the paper's figures.
//
// Concurrency: the Recorder, like the simulator it instruments, is
// single-threaded by design. The Registry and its instruments are safe
// for concurrent use (atomic counters/buckets, locked name table) so
// parallel experiment runners can share snapshot machinery with live
// simulations.
package obsv

// EventKind classifies one Event. The kinds follow the TEMPO request
// lifecycle: a trace record looks up the TLB; a miss starts a page
// walk whose steps probe the MMU caches, the cache hierarchy and
// possibly DRAM; a leaf PTE served by DRAM triggers the TEMPO engine,
// which issues a prefetch; the post-walk replay then hits (or misses)
// what the prefetch staged.
type EventKind uint8

const (
	// EvRecord spans one trace record from dispatch to retirement.
	// Addr is the virtual address; A is 1 for stores.
	EvRecord EventKind = iota
	// EvTLBLookup is an instant: A holds the hit level (0 L1, 1 L2,
	// 2 miss); Addr is the virtual address.
	EvTLBLookup
	// EvMMUCache is an instant MMU (page-walk) cache probe: A is 1 on
	// a hit, 0 on a miss.
	EvMMUCache
	// EvWalkStep spans one page-walk PTE reference. Addr is the PTE's
	// physical address, A the radix level (4..1), and B a bit set:
	// bit 0 = served by DRAM, bit 1 = leaf reference.
	EvWalkStep
	// EvWalkEnd spans a whole hardware walk (serialised latency).
	// Addr is the walked virtual address; B bit 0 = the leaf PTE came
	// from DRAM (TEMPO's trigger population).
	EvWalkEnd
	// EvCacheAccess spans one demand access through the hierarchy.
	// Addr is the physical address, A the serving level (0 L1, 1 L2,
	// 2 LLC, 3 DRAM), Dur the on-chip latency.
	EvCacheAccess
	// EvDRAM spans one DRAM transaction from enqueue to burst
	// completion. Addr is the line address, A the stats.DRAMCategory,
	// B the stats.RowOutcome, and Aux packs channel<<56 | bank<<40 |
	// row (see DecodeDRAMAux).
	EvDRAM
	// EvLeafPTE marks a leaf page-table read served by DRAM — the
	// exact event TEMPO's engine observes. Addr is the PTE address and
	// Aux the replay line index the walker appended.
	EvLeafPTE
	// EvTempoTrigger is an instant: the TEMPO engine examined a served
	// leaf PTE. A is 1 when a prefetch was issued, 0 when suppressed
	// (unallocated or malformed translation). Addr is the PTE address.
	EvTempoTrigger
	// EvTempoPrefetch is an instant: the engine computed the replay's
	// address and enqueued a prefetch for it. Addr is the target line.
	EvTempoPrefetch
	// EvIMPPrefetch is an instant IMP indirect prefetch issue. Addr is
	// the target line.
	EvIMPPrefetch
	// EvReplay spans the post-walk replay of a reference whose leaf
	// PTE came from DRAM. Addr is the replayed line; A the service
	// point (0 LLC, 1 row buffer, 2 DRAM array) as in Figure 11.
	EvReplay
	// EvQueueDepth is a counter sample of the memory controller's
	// transaction-queue depth; Aux holds the depth.
	EvQueueDepth
	// EvRefresh spans one all-bank auto-refresh; A is the channel.
	EvRefresh

	numEventKinds
)

// String implements fmt.Stringer with the names the Chrome trace uses.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [numEventKinds]string{
	EvRecord:        "record",
	EvTLBLookup:     "tlb-lookup",
	EvMMUCache:      "mmu-cache",
	EvWalkStep:      "walk-step",
	EvWalkEnd:       "walk",
	EvCacheAccess:   "cache-access",
	EvDRAM:          "dram",
	EvLeafPTE:       "leaf-pte",
	EvTempoTrigger:  "tempo-trigger",
	EvTempoPrefetch: "tempo-prefetch",
	EvIMPPrefetch:   "imp-prefetch",
	EvReplay:        "replay",
	EvQueueDepth:    "queue-depth",
	EvRefresh:       "refresh",
}

// Event is one captured lifecycle event. It is plain data — fixed
// size, no pointers — so a ring of Events costs the garbage collector
// nothing and recording is a copy.
type Event struct {
	// Cycle is the event's start time in simulated cycles.
	Cycle uint64
	// Dur is the event's duration in cycles; 0 marks an instant.
	Dur uint64
	// Addr is the kind-specific address (virtual or physical).
	Addr uint64
	// Aux carries kind-specific payload (see the EventKind docs).
	Aux uint64
	// Kind classifies the event.
	Kind EventKind
	// Core is the originating core, or -1 for memory-system events
	// not attributable to one core.
	Core int16
	// A and B are small kind-specific fields (levels, categories,
	// outcomes, flags).
	A, B uint8
}

// PackDRAMAux packs a DRAM location into an Event's Aux field.
func PackDRAMAux(channel, bank int, row uint64) uint64 {
	return uint64(channel)<<56 | uint64(bank)<<40 | row&(1<<40-1)
}

// DecodeDRAMAux unpacks what PackDRAMAux packed.
func DecodeDRAMAux(aux uint64) (channel, bank int, row uint64) {
	return int(aux >> 56), int(aux >> 40 & 0xFFFF), aux & (1<<40 - 1)
}

// Recorder captures Events into a fixed-capacity ring buffer, keeping
// the most recent events once full and counting the overwritten ones.
// A record-range filter ([From, From+Count) in per-core trace-record
// indices) gates capture so traces of long runs stay small: the owning
// simulator calls BeginRecord as each core starts a record, and Emit
// drops everything while no core is inside the range.
//
// A nil *Recorder is valid and permanently inactive: every method is
// nil-safe,
// which is what makes instrumentation sites free when tracing is off.
type Recorder struct {
	buf     []Event
	head    int    // index of the oldest stored event
	n       int    // events stored (≤ cap)
	dropped uint64 // events overwritten after the ring filled

	from, to uint64 // record-index range [from, to)
	inRange  uint64 // bitmask of cores currently inside the range
	on       bool   // cached: inRange != 0
}

// DefaultRecorderCap is the default ring capacity (events). At 56
// bytes per event this bounds a full trace buffer near 14 MB.
const DefaultRecorderCap = 1 << 18

// NewRecorder builds a recorder holding up to capacity events
// (DefaultRecorderCap when capacity <= 0) that is active while any
// core executes trace records in [from, from+count). count == 0 means
// "to the end of the run".
func NewRecorder(capacity int, from, count uint64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	to := from + count
	if count == 0 {
		to = ^uint64(0)
	}
	return &Recorder{buf: make([]Event, 0, capacity), from: from, to: to}
}

// Active reports whether events are currently captured. It is the
// guard instrumentation sites use to skip argument construction:
//
//	if rec.Active() {
//		rec.Emit(obsv.Event{...})
//	}
func (r *Recorder) Active() bool { return r != nil && r.on }

// BeginRecord tells the recorder that core starts executing its
// record-index'th trace record, toggling capture according to the
// record-range filter. Cores beyond 63 always count as in-range.
func (r *Recorder) BeginRecord(core int, index uint64) {
	if r == nil {
		return
	}
	in := index >= r.from && index < r.to
	if core >= 0 && core < 64 {
		bit := uint64(1) << uint(core)
		if in {
			r.inRange |= bit
		} else {
			r.inRange &^= bit
		}
		r.on = r.inRange != 0
		return
	}
	r.on = in || r.inRange != 0
}

// Emit appends an event if the recorder is active, overwriting the
// oldest event once the ring is full.
func (r *Recorder) Emit(e Event) {
	if r == nil || !r.on {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Len returns the number of stored events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten after the ring
// filled — nonzero means the trace shows only the tail of the range.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the stored events in emission order. The slice is
// freshly allocated; the recorder keeps capturing afterwards.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}
