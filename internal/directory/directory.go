// Package directory implements the home-node directory state for the
// directory coherence fabric: one Directory per memory controller, holding
// a sharer-tracking entry per cached line whose home that controller is.
//
// Two sharer-tracking schemes are supported. The full map keeps one
// presence bit per processor (exact, storage grows with the machine). The
// limited-pointer scheme (Dir_i-B) keeps up to i exact pointers; when an
// i+1-th sharer appears the entry overflows to a broadcast bit and later
// invalidations must go to every node. Entry storage may be bounded
// (a sparse directory): allocating past the bound evicts the least-
// recently-used entry, whose cached copies the caller must invalidate.
//
// The package is purely bookkeeping — messages, latency and cache state
// changes stay in the simulator. Everything here is deterministic: entries
// are found through an open-addressed table and kept in a slab, and the
// only order that reaches a result, the sparse victim order, is an exact
// LRU list.
package directory

import (
	"math/bits"
	"sync/atomic"

	"cgct/internal/addr"
	"cgct/internal/config"
	"cgct/internal/event"
)

// maskWords sizes the full-map sharer bitmask. Two 64-bit words cover the
// serving layer's 128-processor admission bound; a plain uint64 would
// silently drop sharers above processor 63 (1<<id is 0 for id >= 64).
const maskWords = 2

// MaxProcessors is the largest processor count the sharer mask can track.
const MaxProcessors = maskWords * 64

// Entry is one line's directory state at its home controller. Entries
// live in their Directory's slab and never move, so an *Entry stays valid
// while the line is tracked.
type Entry struct {
	line addr.LineAddr

	// Owner is the node holding the line Exclusive/Modified, or -1.
	Owner int

	// mask is the exact sharer set (full map, or the limited pointers
	// while precise).
	mask [maskWords]uint64

	// prev and next link a sparse directory's LRU list (slab indices,
	// most-recently-used first); next also chains the free list.
	prev, next int32

	// count caches the mask's population (at most MaxProcessors).
	count uint8

	// Overflowed marks a limited-pointer entry that lost precision: more
	// sharers appeared than pointers exist, so the sharer set is a
	// conservative "maybe anyone" and invalidations must broadcast.
	Overflowed bool
}

// Line returns the line this entry tracks.
func (e *Entry) Line() addr.LineAddr { return e.line }

// Uncached reports whether no node holds the line (the entry is dead).
// An overflowed entry is never considered uncached — the precise set is
// lost, so only a full invalidation can retire it.
func (e *Entry) Uncached() bool { return e.Owner < 0 && e.count == 0 && !e.Overflowed }

// Has reports whether node id is in the (precise) sharer set.
func (e *Entry) Has(id int) bool {
	return e.mask[uint(id)/64]&(1<<(uint(id)%64)) != 0
}

// Sharers returns the number of precise sharers recorded.
func (e *Entry) Sharers() int { return int(e.count) }

// AddSharer records node id as a sharer. Under the limited-pointer scheme
// (pointers > 0) the entry overflows when a new sharer would exceed the
// pointer budget; the return value reports whether this call overflowed
// the entry. Overflowed entries stop tracking precisely.
func (e *Entry) AddSharer(id, pointers int) (overflowed bool) {
	if e.Overflowed {
		return false
	}
	if e.Has(id) {
		return false
	}
	if pointers > 0 && int(e.count) >= pointers {
		e.Overflowed = true
		e.mask = [maskWords]uint64{}
		e.count = 0
		return true
	}
	e.mask[uint(id)/64] |= 1 << (uint(id) % 64)
	e.count++
	return false
}

// RemoveSharer drops node id from the precise sharer set (no-op when
// overflowed — precision is already lost).
func (e *Entry) RemoveSharer(id int) {
	if e.Overflowed || !e.Has(id) {
		return
	}
	e.mask[uint(id)/64] &^= 1 << (uint(id) % 64)
	e.count--
}

// ClearSharers resets the sharer set (after a full invalidation), which
// also restores precision to an overflowed entry.
func (e *Entry) ClearSharers() {
	e.mask = [maskWords]uint64{}
	e.count = 0
	e.Overflowed = false
}

// MustInvalidate reports whether node id must receive an invalidation:
// precise sharers get one exactly; an overflowed entry invalidates
// everyone.
func (e *Entry) MustInvalidate(id int) bool {
	return e.Overflowed || e.Has(id) || e.Owner == id
}

// Implicated returns an iterator over the node IDs below procs that
// MustInvalidate reports, in increasing order: the owner and the precise
// sharers, or every node when the entry has overflowed. The iterator is a
// snapshot; the entry may change while it is walked.
func (e *Entry) Implicated(procs int) NodeIter {
	it := NodeIter{mask: e.mask, procs: procs, all: e.Overflowed}
	if o := e.Owner; o >= 0 {
		it.mask[uint(o)/64] |= 1 << (uint(o) % 64)
	}
	return it
}

// NodeIter walks a node set (see Entry.Implicated).
type NodeIter struct {
	mask  [maskWords]uint64
	word  int // next mask word to read
	next  int // next node ID (all-nodes walk)
	procs int
	all   bool
}

// Next returns the next implicated node ID, or -1 when none remain.
func (it *NodeIter) Next() int {
	if it.all {
		if it.next >= it.procs {
			return -1
		}
		it.next++
		return it.next - 1
	}
	for it.word < maskWords {
		m := it.mask[it.word]
		if m == 0 {
			it.word++
			continue
		}
		it.mask[it.word] = m & (m - 1)
		if id := it.word*64 + bits.TrailingZeros64(m); id < it.procs {
			return id
		}
		return -1
	}
	return -1
}

// Stats counts one Directory's behaviour over a run.
type Stats struct {
	Allocs       uint64 // entries created
	Drops        uint64 // entries retired because no node held the line
	Evictions    uint64 // entries evicted by the sparse-storage bound
	PtrOverflows uint64 // limited-pointer entries that lost precision
	QueuedCycles uint64 // cycles transactions waited for the home pipeline
	Peak         uint64 // peak live entries
}

// chunkEntries is the slab's growth step: entries are allocated this many
// at a time and never move afterwards.
const (
	chunkShift   = 8
	chunkEntries = 1 << chunkShift
	chunkMask    = chunkEntries - 1
)

// bucket is one slot of a Directory's open-addressed line table, packed
// into a word: the top 32 bits of the tracked line's hash above the slab
// index of its entry. The hash bits filter a probe's compares, and they
// hold the line's home bucket, so rehashing and deletion never read an
// entry. Slab index 0 is never an entry (it is the LRU sentinel), so a
// zero bucket is empty.
type bucket uint64

const slotMask = 1<<32 - 1

func (b bucket) slot() int32 { return int32(b & slotMask) }

// lineHash is Fibonacci hashing: its top bits mix every address bit (line
// addresses are aligned, so their low bits are zero). A table of 2^k
// buckets indexes by the top k bits; k never exceeds 32, since a slab
// index is an int32 and the table stays at most half full.
func lineHash(line addr.LineAddr) uint64 { return uint64(line) * 0x9e3779b97f4a7c15 }

// minTableBuckets is the line table's initial size; it doubles whenever
// it would become more than half full.
const minTableBuckets = 64

// Directory is the per-home-controller directory.
type Directory struct {
	home     int
	pointers int    // 0 = full map
	maxEnt   uint64 // 0 = unbounded

	// table maps each tracked line to its slab index: linear probing
	// from a multiplicative hash, backward-shift deletion, so no
	// tombstones. shift turns a hash, or a bucket, into a bucket index.
	table []bucket
	shift uint
	live  uint64

	// chunks is the entry slab. Index 0 is the sentinel of the LRU list,
	// which only a sparse directory keeps (its next is the most recent
	// entry, its prev the victim); used counts the indices handed out.
	chunks [][]Entry
	used   int32
	free   int32 // recycled entries, chained via next; 0 = none
	// retired holds the last capacity-eviction victim: its state stays
	// readable until the next Acquire, when it joins the free list.
	retired int32

	// busyUntil serialises transactions at the home: the directory
	// pipeline handles one transaction per DirectoryLatency, and bursts
	// queue — the home-node bottleneck of directory protocols.
	busyUntil event.Cycle

	Stats Stats
}

// New builds the directory for one home controller.
func New(home int, p config.DirectoryParams) *Directory {
	d := &Directory{
		home:   home,
		maxEnt: p.MaxEntriesPerHome,
		table:  make([]bucket, minTableBuckets),
		shift:  64 - addr.Log2(minTableBuckets),
		chunks: [][]Entry{make([]Entry, chunkEntries)},
		used:   1, // the sentinel
	}
	if p.Limited() {
		d.pointers = p.Pointers
	}
	return d
}

// Home returns the home-controller index.
func (d *Directory) Home() int { return d.home }

// Pointers returns the limited-pointer budget (0 = full map).
func (d *Directory) Pointers() int { return d.pointers }

// Live returns the current live entry count.
func (d *Directory) Live() uint64 { return d.live }

// Admit grants a transaction a home-pipeline slot at or after t and
// returns when the slot begins; the caller adds the pipeline occupancy.
func (d *Directory) Admit(t event.Cycle, occupancy uint64) event.Cycle {
	start := t
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.Stats.QueuedCycles += uint64(start - t)
	d.busyUntil = start + event.Cycle(occupancy)
	return start
}

// Lookup returns the entry for line (touching it in the LRU order), or
// nil when the line is untracked.
func (d *Directory) Lookup(line addr.LineAddr) *Entry {
	_, slot := d.find(line)
	if slot == 0 {
		return nil
	}
	e := d.at(slot)
	d.touch(slot, e)
	return e
}

// Peek returns the entry for line without touching the LRU order (for
// read-only paths like invariant checkers).
func (d *Directory) Peek(line addr.LineAddr) *Entry {
	if _, slot := d.find(line); slot != 0 {
		return d.at(slot)
	}
	return nil
}

// Acquire returns the entry for line, creating it if absent. When
// creation would exceed the sparse-storage bound, the least-recently-used
// entry is evicted and returned as victim: the caller must invalidate its
// cached copies (the entry's state is valid until the next Acquire).
func (d *Directory) Acquire(line addr.LineAddr) (e, victim *Entry) {
	i, slot := d.find(line)
	if slot != 0 {
		e = d.at(slot)
		d.touch(slot, e)
		return e, nil
	}
	if d.retired != 0 {
		d.recycle(d.retired)
		d.retired = 0
	}
	if d.maxEnt != 0 && d.live >= d.maxEnt {
		d.retired = d.at(0).prev
		victim = d.at(d.retired)
		d.unlink(victim)
		d.Stats.Evictions++
		i = -1 // the deletion may have shifted line's free bucket
	}
	if (d.live+1)*2 > uint64(len(d.table)) {
		d.grow()
		i = -1
	}
	if i < 0 {
		i, _ = d.find(line)
	}
	slot = d.alloc(line)
	d.table[i] = bucket(lineHash(line)&^slotMask | uint64(slot))
	d.live++
	e = d.at(slot)
	if d.maxEnt != 0 {
		d.pushFront(slot, e)
	}
	d.Stats.Allocs++
	liveEntries.Add(1)
	if d.live > d.Stats.Peak {
		d.Stats.Peak = d.live
	}
	return e, victim
}

// Release retires the entry when no node holds the line any more; call it
// after mutating an entry's sharer/owner state.
func (d *Directory) Release(e *Entry) {
	if !e.Uncached() {
		return
	}
	d.recycle(d.unlink(e))
	d.Stats.Drops++
}

// Close releases the directory's contribution to the process-wide live-
// entry gauge. The Directory must not be used afterwards.
func (d *Directory) Close() {
	// Add the two's complement of the live count (atomic-decrement idiom).
	liveEntries.Add(^d.live + 1)
	d.live = 0
	d.table, d.chunks = nil, nil
}

// at returns the entry at slab index slot.
func (d *Directory) at(slot int32) *Entry {
	return &d.chunks[slot>>chunkShift][slot&chunkMask]
}

// find returns the bucket holding line and its entry's slab index, or
// the empty bucket that ends line's probe sequence and 0.
func (d *Directory) find(line addr.LineAddr) (int, int32) {
	h := lineHash(line)
	mask := len(d.table) - 1
	for i := int(h >> d.shift); ; i = (i + 1) & mask {
		b := d.table[i]
		if b == 0 {
			return i, 0
		}
		if (uint64(b)^h)>>32 == 0 {
			if slot := b.slot(); d.at(slot).line == line {
				return i, slot
			}
		}
	}
}

// homeBucket returns bucket b's home bucket, where its line's probe run starts.
func (d *Directory) homeBucket(b bucket) int { return int(b >> d.shift) }

// grow doubles the line table and reinserts every tracked line.
func (d *Directory) grow() {
	old := d.table
	d.table = make([]bucket, 2*len(old))
	d.shift--
	mask := len(d.table) - 1
	for _, b := range old {
		if b == 0 {
			continue
		}
		i := d.homeBucket(b)
		for d.table[i] != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = b
	}
}

// remove empties bucket i by backward-shift deletion: each later bucket
// of the probe run whose home is at or before the hole moves into it, so
// no lookup ever stops early at the gap.
func (d *Directory) remove(i int) {
	mask := len(d.table) - 1
	for j := (i + 1) & mask; d.table[j] != 0; j = (j + 1) & mask {
		if (j-d.homeBucket(d.table[j]))&mask >= (j-i)&mask {
			d.table[i] = d.table[j]
			i = j
		}
	}
	d.table[i] = 0
}

// alloc takes a slab index from the free list, or the next unused one,
// and initialises its entry for line.
func (d *Directory) alloc(line addr.LineAddr) int32 {
	slot := d.free
	if slot != 0 {
		d.free = d.at(slot).next
	} else {
		if int(d.used) == len(d.chunks)*chunkEntries {
			d.chunks = append(d.chunks, make([]Entry, chunkEntries))
		}
		slot = d.used
		d.used++
	}
	*d.at(slot) = Entry{line: line, Owner: -1}
	return slot
}

// unlink drops entry e from the table and the LRU list and returns its
// slab index; its state remains readable until recycle.
func (d *Directory) unlink(e *Entry) int32 {
	i, slot := d.find(e.line)
	d.remove(i)
	if d.maxEnt != 0 {
		d.at(e.prev).next = e.next
		d.at(e.next).prev = e.prev
	}
	d.live--
	liveEntries.Add(^uint64(0))
	return slot
}

// recycle puts an unlinked entry on the free list.
func (d *Directory) recycle(slot int32) {
	d.at(slot).next = d.free
	d.free = slot
}

// pushFront makes e, at slab index slot, the most recently used entry of
// a sparse directory.
func (d *Directory) pushFront(slot int32, e *Entry) {
	head := d.at(0)
	e.prev, e.next = 0, head.next
	d.at(head.next).prev = slot
	head.next = slot
}

// touch makes e, at slab index slot, the most recently used entry. Only a
// sparse directory ever picks a victim, so an unbounded one keeps no LRU
// list at all.
func (d *Directory) touch(slot int32, e *Entry) {
	if d.maxEnt == 0 || d.at(0).next == slot {
		return
	}
	d.at(e.prev).next = e.next
	d.at(e.next).prev = e.prev
	d.pushFront(slot, e)
}

// liveEntries is the process-wide live directory-entry count across every
// running simulation — the job server exposes it as a Prometheus gauge.
var liveEntries atomic.Uint64

// LiveEntries returns the process-wide live directory-entry count.
func LiveEntries() uint64 { return liveEntries.Load() }
