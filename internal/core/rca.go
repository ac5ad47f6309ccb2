package core

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// Entry is one Region Coherence Array entry as the replacement hook and
// diagnostics see it: the coarse-grain state of one aligned region, the
// line count used for self-invalidation and replacement, and how many of
// those lines are modifiable (E, O or M), from which the entry answers a
// region snoop. The RCA itself stores entries packed into tag words and
// count words (see RCA).
//
// The hardware entry also holds the region's home memory-controller ID
// (Table 2 counts its bits). The host copy derives it instead: it is
// always the topology's home controller of the region.
type Entry struct {
	Region     addr.RegionAddr
	LineCount  int32 // lines of this region currently cached by this processor
	Modifiable int32 // of those, lines in E, O or M
	State      RegionState
}

// stateMask selects a tag word's RegionState bits. Region addresses are
// region-aligned and regions are at least minRegionBytes long, so these
// bits of the address are always zero.
const (
	stateMask      = 7
	minRegionBytes = stateMask + 1
)

// A count word packs a way's line count into its low 16 bits and its
// modifiable-line count into the high 16 bits, so a region snoop reads
// one word. config.Validate caps regions at MaxLinesPerRegion lines, so
// neither half can carry into the other.
const (
	lineCountMask = 1<<16 - 1
	modifiableOne = 1 << 16

	// MaxLinesPerRegion is the most lines a region may span: the largest
	// count a 16-bit half of a count word holds.
	MaxLinesPerRegion = lineCountMask
)

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

// RCA is a set-associative Region Coherence Array. Each way is one tag
// word — the region address with its RegionState in the always-zero low
// bits — so a probe reads only its set's tag words. Replacement stamps and
// count words live in parallel arrays, touched only on hits, fills,
// line-count updates and region snoops.
type RCA struct {
	geom    addr.Geometry
	sets    uint64
	assoc   int
	setMask uint64
	tags    []uint64 // sets * assoc, set-major; 0 state bits = invalid
	lrus    []uint64 // replacement stamp per way (higher = more recent)
	counts  []uint32 // count word per way: cached lines | modifiable lines<<16
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
	if sets == 0 || !addr.IsPow2(sets) || assoc <= 0 || geom.RegionBytes < minRegionBytes ||
		geom.LinesPerRegion() > MaxLinesPerRegion {
		panic(fmt.Sprintf("core: bad RCA geometry (%d sets, %d ways, %d-byte regions)", sets, assoc, geom.RegionBytes))
	}
	ways := sets * uint64(assoc)
	words := make([]uint64, 2*ways) // one allocation for tags and stamps
	return &RCA{
		geom:    geom,
		sets:    sets,
		assoc:   assoc,
		setMask: sets - 1,
		tags:    words[:ways:ways],
		lrus:    words[ways:],
		counts:  make([]uint32, ways),
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

// setBase returns the index of the first way of region's set.
func (r *RCA) setBase(region addr.RegionAddr) int {
	return int((uint64(region)>>r.geom.RegionShift())&r.setMask) * r.assoc
}

// wayEntry unpacks way w.
func (r *RCA) wayEntry(w int) Entry {
	t := r.tags[w]
	return Entry{Region: addr.RegionAddr(t &^ stateMask), LineCount: r.LineCount(w), Modifiable: r.ModifiableCount(w),
		State: RegionState(t & stateMask)}
}

// Probe returns the index of the way holding region in a valid state, or
// -1. The index stays valid until the next Allocate.
func (r *RCA) Probe(region addr.RegionAddr) int {
	b := r.setBase(region)
	for i, t := range r.tags[b : b+r.assoc] {
		// One compare: the XOR is 1..stateMask exactly when the region
		// matches and the state bits are non-zero (valid). Invalidated
		// ways keep their stale region with zero state bits.
		if (t^uint64(region))-1 < stateMask {
			return b + i
		}
	}
	return -1
}

// State returns the state of way w (a Probe result).
func (r *RCA) State(w int) RegionState { return RegionState(r.tags[w] & stateMask) }

// LineCount returns how many lines of way w's region are cached.
func (r *RCA) LineCount(w int) int32 { return int32(r.counts[w] & lineCountMask) }

// ModifiableCount returns how many lines of way w's region are cached in
// E, O or M.
func (r *RCA) ModifiableCount(w int) int32 { return int32(r.counts[w] >> 16) }

// RegionSnoop returns this processor's contribution to a region snoop
// response for way w's region (a Probe result): whether it caches any
// line of the region, and whether any of them is modifiable. It reads
// the entry's counts, never the cache.
func (r *RCA) RegionSnoop(w int) (present, modifiable bool) {
	c := r.counts[w]
	return c != 0, c >= modifiableOne
}

// Lookup returns the region's state, counting a hit or miss, and refreshes
// LRU on hit. Missing regions return RegionInvalid.
func (r *RCA) Lookup(region addr.RegionAddr) RegionState {
	w := r.Probe(region)
	if w < 0 {
		r.Stats.Misses++
		return RegionInvalid
	}
	r.Stats.Hits++
	r.touchWay(w)
	return r.State(w)
}

// touchWay makes way w the most recently used.
func (r *RCA) touchWay(w int) {
	r.lruTick++
	r.lrus[w] = r.lruTick
}

// victimWay picks the way to displace in region's set: a free way if any,
// else the LRU way among entries with no cached lines (the replacement
// policy favors empty regions, §3.2), else the overall LRU way.
func (r *RCA) victimWay(region addr.RegionAddr) int {
	b := r.setBase(region)
	free, emptyLRU, anyLRU := -1, -1, -1
	for w := b; w < b+r.assoc; w++ {
		if r.tags[w]&stateMask == 0 {
			if free < 0 {
				free = w
			}
			continue
		}
		if r.counts[w] == 0 && (emptyLRU < 0 || r.lrus[w] < r.lrus[emptyLRU]) {
			emptyLRU = w
		}
		if anyLRU < 0 || r.lrus[w] < r.lrus[anyLRU] {
			anyLRU = w
		}
	}
	if free >= 0 {
		return free
	}
	if emptyLRU >= 0 {
		return emptyLRU
	}
	return anyLRU
}

// VictimFor returns a copy of the entry that Allocate would displace for
// region (State Invalid if a free way exists), without modifying the array.
// The simulator uses it to flush the victim's lines before allocation.
func (r *RCA) VictimFor(region addr.RegionAddr) Entry {
	if r.Probe(region) >= 0 {
		return Entry{} // already present: no displacement
	}
	v := r.victimWay(region)
	if r.tags[v]&stateMask == 0 {
		return Entry{}
	}
	return r.wayEntry(v)
}

// Allocate installs region with the given state, displacing a victim if
// needed. OnEvict fires for a valid victim before it is removed. If the
// region is already present its state is updated in place (LineCount
// preserved).
func (r *RCA) Allocate(region addr.RegionAddr, st RegionState) {
	if !st.Valid() {
		panic("core: allocating region in state I")
	}
	if w := r.Probe(region); w >= 0 {
		r.tags[w] = uint64(region) | uint64(st)
		r.touchWay(w)
		return
	}
	v := r.victimWay(region)
	if r.tags[v]&stateMask != 0 {
		r.evictWay(v)
	}
	r.Stats.Allocations++
	r.tags[v] = uint64(region) | uint64(st)
	r.counts[v] = 0
	r.touchWay(v)
}

func (r *RCA) evictWay(w int) {
	r.Stats.Evictions++
	n := r.LineCount(w)
	r.Stats.EvictedByCount[min(n, 3)]++
	r.Stats.LineSumAtEvict += uint64(n)
	if r.OnEvict != nil {
		r.OnEvict(r.wayEntry(w))
	}
	r.invalidateWay(w)
}

// invalidateWay clears way w's state bits (keeping the stale region, as
// hardware keeps a stale tag) and its counts.
func (r *RCA) invalidateWay(w int) {
	r.tags[w] &^= stateMask
	r.counts[w] = 0
}

// SetState updates the state of a present region (no-op when absent).
// Setting RegionInvalid removes the entry without firing OnEvict — used by
// self-invalidation, where the line count is already zero.
func (r *RCA) SetState(region addr.RegionAddr, st RegionState) {
	if w := r.Probe(region); w >= 0 {
		r.SetWayState(w, st)
	}
}

// SetWayState is SetState for way w (a Probe result), without the probe.
func (r *RCA) SetWayState(w int, st RegionState) {
	if !st.Valid() {
		r.invalidateWay(w)
		return
	}
	r.tags[w] = r.tags[w]&^stateMask | uint64(st)
}

// IncLineCount notes that a line of region entered the cache in state st.
// The region must be present (inclusion invariant); the simulator
// allocates the entry before filling lines.
func (r *RCA) IncLineCount(region addr.RegionAddr, st coherence.LineState) {
	w := r.Probe(region)
	if w < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-inclusion", Region: uint64(region),
			Detail: "line fill for a region with no RCA entry",
		})
	}
	if st.Modifiable() {
		r.counts[w] += 1 + modifiableOne
	} else {
		r.counts[w]++
	}
}

// DecLineCount notes that a line of region left the cache from state st.
// Tolerates a missing entry (the region may be mid-eviction).
func (r *RCA) DecLineCount(region addr.RegionAddr, st coherence.LineState) {
	w := r.Probe(region)
	if w < 0 {
		return
	}
	if r.counts[w]&lineCountMask == 0 {
		r.negative(w, "negative cached-line count")
	}
	r.counts[w]--
	if st.Modifiable() {
		r.decModifiable(w)
	}
}

// ModifiableChanged notes that a cached line of region changed state in
// place and became modifiable (now true) or stopped being so — an S→M
// upgrade or an E/M→S downgrade. Tolerates a missing entry, as
// DecLineCount does.
func (r *RCA) ModifiableChanged(region addr.RegionAddr, now bool) {
	w := r.Probe(region)
	if w < 0 {
		return
	}
	if now {
		r.counts[w] += modifiableOne
	} else {
		r.decModifiable(w)
	}
}

func (r *RCA) decModifiable(w int) {
	if r.counts[w] < modifiableOne {
		r.negative(w, "negative modifiable-line count")
	}
	r.counts[w] -= modifiableOne
}

func (r *RCA) negative(w int, detail string) {
	coherence.Violate(coherence.InvariantError{
		Check: "rca-line-count", Region: uint64(r.tags[w] &^ stateMask), States: r.State(w).String(),
		Detail: detail,
	})
}

// ForEachValid visits all valid entries in set-major order
// (diagnostics/tests).
func (r *RCA) ForEachValid(fn func(Entry)) {
	for w, t := range r.tags {
		if t&stateMask != 0 {
			fn(r.wayEntry(w))
		}
	}
}

// CountValid returns the number of valid entries.
func (r *RCA) CountValid() int {
	n := 0
	for _, t := range r.tags {
		if t&stateMask != 0 {
			n++
		}
	}
	return n
}
