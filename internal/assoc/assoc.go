// Package assoc provides a generic set-associative array with true LRU
// replacement. It is the storage building block for the TLBs, the MMU
// page-walk caches, and the adaptive row-policy prediction cache.
package assoc

import "fmt"

// Assoc is a set-associative array with LRU replacement mapping uint64
// keys to values of type V. Sets must be a power of two.
//
// Validity is encoded in the stamp array: the LRU clock starts at 1,
// so a way is occupied exactly when its stamp is non-zero. Probes and
// victim scans therefore touch two arrays (tags, stamps) instead of
// three.
type Assoc[V any] struct {
	sets, ways int
	setMask    uint64
	tick       uint64
	tags       []uint64
	stamp      []uint64 // 0 = empty way
	vals       []V
}

// CheckGeometry reports why sets × ways cannot build an array: sets
// must be a positive power of two and ways positive. The error text
// begins with the offending field's name ("Sets" or "Ways"), so a
// config holding the pair can prefix its own path.
func CheckGeometry(sets, ways int) error {
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("Sets must be a positive power of two, got %d", sets)
	}
	if ways <= 0 {
		return fmt.Errorf("Ways must be positive, got %d", ways)
	}
	return nil
}

// New builds an array with the given geometry. A sets value of 1
// yields a fully-associative array. Panics on invalid geometry
// (CheckGeometry).
func New[V any](sets, ways int) *Assoc[V] {
	if err := CheckGeometry(sets, ways); err != nil {
		panic("assoc: " + err.Error())
	}
	n := sets * ways
	return &Assoc[V]{
		sets: sets, ways: ways, setMask: uint64(sets - 1),
		tags:  make([]uint64, n),
		stamp: make([]uint64, n),
		vals:  make([]V, n),
	}
}

// Entries returns the total capacity.
func (a *Assoc[V]) Entries() int { return a.sets * a.ways }

// Lookup probes for key, updating LRU state on a hit. The scan tests
// the tag before the stamp: most ways mismatch, so the common case
// touches only the packed tag array.
func (a *Assoc[V]) Lookup(key uint64) (V, bool) {
	base := int(key&a.setMask) * a.ways
	tags := a.tags[base : base+a.ways]
	for w, t := range tags {
		if t == key && a.stamp[base+w] != 0 {
			i := base + w
			a.tick++
			a.stamp[i] = a.tick
			return a.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Peek probes without touching LRU state.
func (a *Assoc[V]) Peek(key uint64) (V, bool) {
	base := int(key&a.setMask) * a.ways
	tags := a.tags[base : base+a.ways]
	for w, t := range tags {
		if t == key && a.stamp[base+w] != 0 {
			return a.vals[base+w], true
		}
	}
	var zero V
	return zero, false
}

// Insert installs key→val, replacing the LRU way of the set (or
// updating in place on a key match).
func (a *Assoc[V]) Insert(key uint64, val V) {
	victim := a.victimFor(key)
	a.tick++
	a.tags[victim] = key
	a.stamp[victim] = a.tick
	a.vals[victim] = val
}

// InsertEvict installs key→val exactly as Insert does, and
// additionally reports the valid key it displaced, if any. Callers
// that mirror the array's contents elsewhere use the evicted key to
// invalidate their copy.
func (a *Assoc[V]) InsertEvict(key uint64, val V) (evicted uint64, ok bool) {
	victim := a.victimFor(key)
	if a.stamp[victim] != 0 && a.tags[victim] != key {
		evicted, ok = a.tags[victim], true
	}
	a.tick++
	a.tags[victim] = key
	a.stamp[victim] = a.tick
	a.vals[victim] = val
	return evicted, ok
}

// victimFor picks the way an insertion of key replaces: the way
// already holding key, else the first empty way, else the LRU way.
func (a *Assoc[V]) victimFor(key uint64) int {
	base := int(key&a.setMask) * a.ways
	victim := base
	for w := 0; w < a.ways; w++ {
		i := base + w
		s := a.stamp[i]
		if s != 0 && a.tags[i] == key {
			return i
		}
		if s == 0 {
			return i
		}
		if s < a.stamp[victim] {
			victim = i
		}
	}
	return victim
}

// Invalidate removes key if present, returning whether it was found.
func (a *Assoc[V]) Invalidate(key uint64) bool {
	base := int(key&a.setMask) * a.ways
	for w := 0; w < a.ways; w++ {
		i := base + w
		if a.stamp[i] != 0 && a.tags[i] == key {
			a.stamp[i] = 0
			return true
		}
	}
	return false
}

// Flush empties the array.
func (a *Assoc[V]) Flush() {
	for i := range a.stamp {
		a.stamp[i] = 0
	}
}
