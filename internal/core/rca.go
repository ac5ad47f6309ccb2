package core

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// Entry is one Region Coherence Array entry: the coarse-grain state of one
// aligned region, plus the line count used for self-invalidation and
// replacement, and the home memory-controller ID used to route direct
// requests and write-backs.
// The fields are narrowed and ordered so an entry packs into 24 bytes.
type Entry struct {
	Region    addr.RegionAddr
	lru       uint64
	LineCount int32 // lines of this region currently cached by this processor
	MemCtrl   int16 // home memory controller ID
	State     RegionState
}

// RCAStats counts RCA events.
type RCAStats struct {
	Hits             uint64
	Misses           uint64
	Allocations      uint64
	Evictions        uint64
	SelfInvals       uint64    // entries dropped by line-count-zero self-invalidation
	EvictedByCount   [4]uint64 // evictions with 0, 1, 2, 3+ cached lines (§3.2)
	LineSumAtEvict   uint64    // sum of line counts at eviction (avg lines/region)
	DowngradeExt     uint64    // external requests that downgraded the entry
	UpgradeFromResp  uint64    // broadcast responses that upgraded the external component
	LocalCompletions uint64    // requests completed with no external request
}

// EmptyEvictFraction returns the fraction of evicted regions that held no
// cached lines (the paper reports 65.1% for 512 B regions).
func (s RCAStats) EmptyEvictFraction() float64 {
	if s.Evictions == 0 {
		return 0
	}
	return float64(s.EvictedByCount[0]) / float64(s.Evictions)
}

// RCA is a set-associative Region Coherence Array.
type RCA struct {
	geom    addr.Geometry
	sets    uint64
	assoc   int
	setMask uint64
	ways    []Entry
	lruTick uint64

	// OnEvict is called with the victim entry before it is replaced or
	// invalidated, while it is still installed. The simulator uses it to
	// evict the region's cached lines first (inclusion between the RCA and
	// the cache, §3.2).
	OnEvict func(e Entry)

	Stats RCAStats
}

// NewRCA builds an RCA with the given geometry. sets must be a power of
// two.
func NewRCA(geom addr.Geometry, sets uint64, assoc int) *RCA {
	if sets == 0 || !addr.IsPow2(sets) || assoc <= 0 {
		panic(fmt.Sprintf("core: bad RCA geometry (%d sets, %d ways)", sets, assoc))
	}
	return &RCA{
		geom:    geom,
		sets:    sets,
		assoc:   assoc,
		setMask: sets - 1,
		ways:    make([]Entry, sets*uint64(assoc)),
	}
}

// Geometry returns the line/region geometry.
func (r *RCA) Geometry() addr.Geometry { return r.geom }

// Sets returns the number of sets.
func (r *RCA) Sets() uint64 { return r.sets }

// Assoc returns the associativity.
func (r *RCA) Assoc() int { return r.assoc }

// Entries returns the total capacity in entries.
func (r *RCA) Entries() uint64 { return r.sets * uint64(r.assoc) }

func (r *RCA) set(region addr.RegionAddr) []Entry {
	idx := (uint64(region) >> r.geom.RegionShift()) & r.setMask
	i := idx * uint64(r.assoc)
	return r.ways[i : i+uint64(r.assoc)]
}

// Probe returns the entry for region if present, else nil. The pointer is
// invalidated by the next Allocate in the same set.
func (r *RCA) Probe(region addr.RegionAddr) *Entry {
	s := r.set(region)
	for i := range s {
		// Region compare first: it rejects most ways with one compare.
		if s[i].Region == region && s[i].State.Valid() {
			return &s[i]
		}
	}
	return nil
}

// Lookup returns the region's state, counting a hit or miss, and refreshes
// LRU on hit. Missing regions return RegionInvalid.
func (r *RCA) Lookup(region addr.RegionAddr) RegionState {
	e := r.Probe(region)
	if e == nil {
		r.Stats.Misses++
		return RegionInvalid
	}
	r.Stats.Hits++
	r.lruTick++
	e.lru = r.lruTick
	return e.State
}

// victimIn picks the way to displace in set s: a free way if any, else the
// LRU way among entries with no cached lines (the replacement policy favors
// empty regions, §3.2), else the overall LRU way.
func victimIn(s []Entry) *Entry {
	var free, emptyLRU, anyLRU *Entry
	for i := range s {
		e := &s[i]
		if !e.State.Valid() {
			if free == nil {
				free = e
			}
			continue
		}
		if e.LineCount == 0 && (emptyLRU == nil || e.lru < emptyLRU.lru) {
			emptyLRU = e
		}
		if anyLRU == nil || e.lru < anyLRU.lru {
			anyLRU = e
		}
	}
	if free != nil {
		return free
	}
	if emptyLRU != nil {
		return emptyLRU
	}
	return anyLRU
}

// VictimFor returns a copy of the entry that Allocate would displace for
// region (State Invalid if a free way exists), without modifying the array.
// The simulator uses it to flush the victim's lines before allocation.
func (r *RCA) VictimFor(region addr.RegionAddr) Entry {
	if e := r.Probe(region); e != nil {
		return Entry{} // already present: no displacement
	}
	v := victimIn(r.set(region))
	if v == nil || !v.State.Valid() {
		return Entry{}
	}
	return *v
}

// Allocate installs region with the given state and home memory controller,
// displacing a victim if needed. OnEvict fires for a valid victim before it
// is removed. If the region is already present its state is updated in
// place (LineCount preserved).
func (r *RCA) Allocate(region addr.RegionAddr, st RegionState, memCtrl int) {
	if !st.Valid() {
		panic("core: allocating region in state I")
	}
	if e := r.Probe(region); e != nil {
		e.State = st
		e.MemCtrl = int16(memCtrl)
		r.lruTick++
		e.lru = r.lruTick
		return
	}
	s := r.set(region)
	v := victimIn(s)
	if v.State.Valid() {
		r.evictEntry(v)
	}
	r.Stats.Allocations++
	r.lruTick++
	*v = Entry{Region: region, State: st, MemCtrl: int16(memCtrl), lru: r.lruTick}
}

func (r *RCA) evictEntry(v *Entry) {
	r.Stats.Evictions++
	c := v.LineCount
	if c > 3 {
		c = 3
	}
	r.Stats.EvictedByCount[c]++
	r.Stats.LineSumAtEvict += uint64(v.LineCount)
	if r.OnEvict != nil {
		r.OnEvict(*v)
	}
	v.State = RegionInvalid
	v.LineCount = 0
}

// SetState updates the state of a present region (no-op when absent).
// Setting RegionInvalid removes the entry without firing OnEvict — used by
// self-invalidation, where the line count is already zero.
func (r *RCA) SetState(region addr.RegionAddr, st RegionState) {
	e := r.Probe(region)
	if e == nil {
		return
	}
	if !st.Valid() {
		e.State = RegionInvalid
		e.LineCount = 0
		return
	}
	e.State = st
}

// IncLineCount notes that a line of region entered the cache. The region
// must be present (inclusion invariant); the simulator allocates the entry
// before filling lines.
func (r *RCA) IncLineCount(region addr.RegionAddr) {
	e := r.Probe(region)
	if e == nil {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-inclusion", Region: uint64(region),
			Detail: "line fill for a region with no RCA entry",
		})
	}
	e.LineCount++
}

// DecLineCount notes that a line of region left the cache. Tolerates a
// missing entry (the region may be mid-eviction).
func (r *RCA) DecLineCount(region addr.RegionAddr) {
	e := r.Probe(region)
	if e == nil {
		return
	}
	e.LineCount--
	if e.LineCount < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-line-count", Region: uint64(region), States: e.State.String(),
			Detail: "negative cached-line count",
		})
	}
}

// ForEachValid visits all valid entries (diagnostics/tests).
func (r *RCA) ForEachValid(fn func(Entry)) {
	for i := range r.ways {
		if r.ways[i].State.Valid() {
			fn(r.ways[i])
		}
	}
}

// CountValid returns the number of valid entries.
func (r *RCA) CountValid() int {
	n := 0
	for i := range r.ways {
		if r.ways[i].State.Valid() {
			n++
		}
	}
	return n
}
