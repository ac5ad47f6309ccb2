// Package cache implements the set-associative, write-back caches of the
// simulated processors (L1I, L1D and L2). It stores tags and coherence
// state only — the simulator tracks no data contents except for a separate
// architectural-memory checker in the tests.
//
// The cache is a plain deterministic data structure; all timing lives in
// the simulation layer.
package cache

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// Line is one cache line's bookkeeping: the value the eviction and
// allocation hooks observe. The cache itself stores lines packed into tag
// words (see Cache).
type Line struct {
	Addr  addr.LineAddr
	State coherence.LineState
}

// stateMask selects a tag word's LineState bits. Line addresses are
// line-aligned and lines are at least minLineBytes long, so these bits of
// the address are always zero.
const (
	stateMask    = 7
	minLineBytes = stateMask + 1
)

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // capacity/conflict evictions of valid lines
	DirtyEvicts uint64 // evictions that produced a write-back
	Invals      uint64 // externally forced invalidations
}

// MissRatio returns misses / (hits+misses), or 0 when idle.
func (s Stats) MissRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Cache is a set-associative cache keyed by line address. Each way is one
// tag word — the line address with the LineState in its always-zero low
// bits — so a lookup reads only its set's tag words. Replacement stamps
// live in a parallel array touched only on hits and fills.
type Cache struct {
	name      string
	assoc     int
	numSets   uint64
	lineShift uint
	setMask   uint64
	tags      []uint64 // numSets * assoc, set-major; 0 state bits = invalid
	lrus      []uint64 // replacement stamp per way (higher = more recent)
	lruTick   uint64

	// OnEvict, when set, observes every valid line leaving the cache
	// (capacity eviction or invalidation). The RCA uses it to maintain
	// region line counts; the L2 uses it to back-invalidate the L1s.
	OnEvict func(l Line, wasEviction bool)
	// OnAllocate observes every line entering the cache.
	OnAllocate func(l Line)
	// OnRestate observes every in-place state change of a valid line to
	// another valid state (SetState, Promote, and Allocate of a present
	// line), with the prior state. The RCA uses it to keep its count of
	// modifiable lines.
	OnRestate func(l addr.LineAddr, from, to coherence.LineState)

	Stats Stats
}

// New builds a cache of sizeBytes with the given associativity and line
// size. Panics on invalid geometry (configuration is validated upstream).
func New(name string, sizeBytes uint64, assoc int, lineBytes uint64) *Cache {
	if assoc <= 0 || !addr.IsPow2(lineBytes) || lineBytes < minLineBytes {
		panic(fmt.Sprintf("cache %s: bad geometry", name))
	}
	numSets := sizeBytes / (lineBytes * uint64(assoc))
	if numSets == 0 || !addr.IsPow2(numSets) {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, numSets))
	}
	ways := numSets * uint64(assoc)
	words := make([]uint64, 2*ways) // one allocation for tags and stamps
	return &Cache{
		name:      name,
		assoc:     assoc,
		numSets:   numSets,
		lineShift: addr.Log2(lineBytes),
		setMask:   numSets - 1,
		tags:      words[:ways:ways],
		lrus:      words[ways:],
	}
}

// Name returns the cache's name (for diagnostics).
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() uint64 { return c.numSets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// LineBytes returns the line size.
func (c *Cache) LineBytes() uint64 { return 1 << c.lineShift }

// setBase returns the index of the first way of l's set.
func (c *Cache) setBase(l addr.LineAddr) int {
	return int((uint64(l)>>c.lineShift)&c.setMask) * c.assoc
}

// wayLine unpacks way i's tag word.
func (c *Cache) wayLine(i int) Line {
	w := c.tags[i]
	return Line{Addr: addr.LineAddr(w &^ stateMask), State: coherence.LineState(w & stateMask)}
}

// Probe returns the index of the way holding l in a valid state, or -1.
// The index stays valid until the next Allocate.
func (c *Cache) Probe(l addr.LineAddr) int {
	b := c.setBase(l)
	for i, w := range c.tags[b : b+c.assoc] {
		// One compare: the XOR is 1..stateMask exactly when the address
		// matches and the state bits are non-zero (valid). Invalidated
		// ways keep their stale address with zero state bits.
		if (w^uint64(l))-1 < stateMask {
			return b + i
		}
	}
	return -1
}

// Lookup returns the line's state without touching LRU or stats. Invalid
// means not present.
func (c *Cache) Lookup(l addr.LineAddr) coherence.LineState {
	if i := c.Probe(l); i >= 0 {
		return coherence.LineState(c.tags[i] & stateMask)
	}
	return coherence.Invalid
}

// touchWay makes way i the most recently used.
func (c *Cache) touchWay(i int) {
	c.lruTick++
	c.lrus[i] = c.lruTick
}

// Access looks the line up and updates LRU and hit/miss statistics. It
// returns the line's state (Invalid on a miss).
func (c *Cache) Access(l addr.LineAddr) coherence.LineState {
	i := c.Probe(l)
	if i < 0 {
		c.Stats.Misses++
		return coherence.Invalid
	}
	c.Stats.Hits++
	c.touchWay(i)
	return coherence.LineState(c.tags[i] & stateMask)
}

// Touch refreshes the line's LRU position without counting a hit.
func (c *Cache) Touch(l addr.LineAddr) {
	if i := c.Probe(l); i >= 0 {
		c.touchWay(i)
	}
}

// Promote sets a present line's state and refreshes its LRU position in a
// single tag lookup — the store-hit fast path, equivalent to SetState
// followed by Touch. It must not be used to invalidate; it is a no-op when
// the line is absent.
func (c *Cache) Promote(l addr.LineAddr, st coherence.LineState) {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: Promote to invalid state", c.name))
	}
	if i := c.Probe(l); i >= 0 {
		c.restateWay(i, l, st)
		c.touchWay(i)
	}
}

// restateWay sets valid way i, holding l, to the valid state st and
// reports the change to OnRestate.
func (c *Cache) restateWay(i int, l addr.LineAddr, st coherence.LineState) {
	from := coherence.LineState(c.tags[i] & stateMask)
	c.tags[i] = uint64(l) | uint64(st)
	if c.OnRestate != nil {
		c.OnRestate(l, from, st)
	}
}

// victimWay returns the way Allocate fills in l's set: the first invalid
// way, else the way with the strictly lowest replacement stamp.
func (c *Cache) victimWay(l addr.LineAddr) int {
	b := c.setBase(l)
	v := -1
	for i := b; i < b+c.assoc; i++ {
		if c.tags[i]&stateMask == 0 {
			return i
		}
		if v < 0 || c.lrus[i] < c.lrus[v] {
			v = i
		}
	}
	return v
}

// VictimFor returns the line that would be displaced to make room for l
// (zero Line with Invalid state if a free way exists). It does not modify
// the cache.
func (c *Cache) VictimFor(l addr.LineAddr) Line {
	i := c.victimWay(l)
	if c.tags[i]&stateMask == 0 {
		return Line{}
	}
	return c.wayLine(i)
}

// Allocate inserts line l with the given state, evicting the LRU way if the
// set is full. It returns the evicted line (State != Invalid when a real
// eviction happened). Allocating a line that is already present just
// updates its state.
func (c *Cache) Allocate(l addr.LineAddr, st coherence.LineState) (evicted Line) {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: allocating %v in state I", c.name, l))
	}
	if i := c.Probe(l); i >= 0 {
		c.restateWay(i, l, st)
		c.touchWay(i)
		return Line{}
	}
	slot := c.victimWay(l)
	if c.tags[slot]&stateMask != 0 {
		evicted = c.wayLine(slot)
		c.Stats.Evictions++
		if evicted.State.Dirty() {
			c.Stats.DirtyEvicts++
		}
		if c.OnEvict != nil {
			c.OnEvict(evicted, true)
		}
	}
	c.tags[slot] = uint64(l) | uint64(st)
	c.touchWay(slot)
	if c.OnAllocate != nil {
		c.OnAllocate(Line{Addr: l, State: st})
	}
	return evicted
}

// SetState changes the state of a present line; it is a no-op when the line
// is absent. Setting Invalid removes the line (counted as an invalidation).
func (c *Cache) SetState(l addr.LineAddr, st coherence.LineState) {
	i := c.Probe(l)
	if i < 0 {
		return
	}
	if st == coherence.Invalid {
		c.invalidateWay(i)
		return
	}
	c.restateWay(i, l, st)
}

// Invalidate removes the line, returning its prior state (Invalid if it was
// not present).
func (c *Cache) Invalidate(l addr.LineAddr) coherence.LineState {
	i := c.Probe(l)
	if i < 0 {
		return coherence.Invalid
	}
	return c.invalidateWay(i)
}

// invalidateWay clears way i's state bits (keeping the stale address, as
// hardware keeps a stale tag) and returns the prior state.
func (c *Cache) invalidateWay(i int) coherence.LineState {
	old := c.wayLine(i)
	c.tags[i] &^= stateMask
	c.Stats.Invals++
	if c.OnEvict != nil {
		c.OnEvict(old, false)
	}
	return old.State
}

// CountValid returns the number of valid lines (test/diagnostic helper).
func (c *Cache) CountValid() int {
	n := 0
	for _, w := range c.tags {
		if w&stateMask != 0 {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line (order: set-major). Intended
// for tests and final-state checks, not hot paths.
func (c *Cache) ForEachValid(fn func(Line)) {
	for i, w := range c.tags {
		if w&stateMask != 0 {
			fn(c.wayLine(i))
		}
	}
}

// RegionSnoop summarises the cache's copies within a region by probing
// every line of it: whether any valid line exists and whether any line is
// modifiable (E, O or M; see coherence.LineState.Modifiable). This is
// what a remote processor contributes to the region snoop response. The
// simulator answers from the RCA's counts instead; this full scan is the
// reference its debug checks compare against.
func (c *Cache) RegionSnoop(g addr.Geometry, r addr.RegionAddr) (present, modifiable bool) {
	for i := 0; i < g.LinesPerRegion(); i++ {
		if st := c.Lookup(g.LineInRegion(r, i)); st.Valid() {
			present = true
			if st.Modifiable() {
				return true, true
			}
		}
	}
	return present, false
}
