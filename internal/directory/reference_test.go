package directory

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"cgct/internal/addr"
	"cgct/internal/config"
)

// TestEntrySize pins the host footprint of a directory entry. A
// 16-processor run tracks tens of thousands of lines per run, and the
// entry used to be a 64-byte heap object of its own.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 48 {
		t.Errorf("Entry is %d host bytes, want at most 48", got)
	}
}

// refDir is a map-based model of the Directory contract: entries keyed by
// line, an explicit most-recent-first order for a sparse directory's
// victims, and the same Stats.
type refDir struct {
	maxEnt  uint64
	entries map[addr.LineAddr]*Entry
	order   []addr.LineAddr // most recent first; sparse directories only
	stats   Stats
}

func (r *refDir) touch(line addr.LineAddr) {
	if r.maxEnt == 0 {
		return
	}
	for i, l := range r.order {
		if l == line {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = line
			return
		}
	}
}

func (r *refDir) drop(line addr.LineAddr) {
	delete(r.entries, line)
	for i, l := range r.order {
		if l == line {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *refDir) lookup(line addr.LineAddr) *Entry {
	e := r.entries[line]
	if e != nil {
		r.touch(line)
	}
	return e
}

func (r *refDir) acquire(line addr.LineAddr) (e, victim *Entry) {
	if e = r.entries[line]; e != nil {
		r.touch(line)
		return e, nil
	}
	if r.maxEnt != 0 && uint64(len(r.entries)) >= r.maxEnt {
		last := r.order[len(r.order)-1]
		victim = r.entries[last]
		r.drop(last)
		r.stats.Evictions++
	}
	e = &Entry{line: line, Owner: -1}
	r.entries[line] = e
	if r.maxEnt != 0 {
		r.order = append([]addr.LineAddr{line}, r.order...)
	}
	r.stats.Allocs++
	if live := uint64(len(r.entries)); live > r.stats.Peak {
		r.stats.Peak = live
	}
	return e, victim
}

func (r *refDir) release(e *Entry) {
	if e.Uncached() {
		r.drop(e.line)
		r.stats.Drops++
	}
}

// sameEntry reports how a and b differ in their observable state, or "".
func sameEntry(a, b *Entry) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("present %v, reference %v", a != nil, b != nil)
	}
	if a == nil {
		return ""
	}
	if a.line != b.line || a.Owner != b.Owner || a.mask != b.mask || a.count != b.count || a.Overflowed != b.Overflowed {
		return fmt.Sprintf("line %x owner %d mask %x count %d overflowed %v, reference line %x owner %d mask %x count %d overflowed %v",
			uint64(a.line), a.Owner, a.mask, a.count, a.Overflowed, uint64(b.line), b.Owner, b.mask, b.count, b.Overflowed)
	}
	return ""
}

// mutate applies one random sharer/owner change to both a and b.
func mutate(rng *rand.Rand, pointers int, a, b *Entry) {
	id := rng.Intn(MaxProcessors)
	switch rng.Intn(5) {
	case 0, 1:
		a.AddSharer(id, pointers)
		b.AddSharer(id, pointers)
	case 2:
		a.RemoveSharer(id)
		b.RemoveSharer(id)
	case 3:
		if rng.Intn(2) == 0 {
			id = -1
		}
		a.Owner, b.Owner = id, id
	default:
		a.ClearSharers()
		b.ClearSharers()
		a.Owner, b.Owner = -1, -1
	}
}

// wrapLines returns n distinct lines whose home bucket is one of the last
// three of a 128-bucket table — and so one of the last six of a
// 256-bucket one, since the hash keeps its top bits — so their probe runs
// wrap around the end of the table.
func wrapLines(n int) []addr.LineAddr {
	var out []addr.LineAddr
	for l := addr.LineAddr(64); len(out) < n; l += 64 {
		if lineHash(l)>>(64-7) >= 128-3 {
			out = append(out, l)
		}
	}
	return out
}

// wrapped reports whether some tracked line sits before its home bucket,
// on a probe run that wrapped around the end of the table.
func (d *Directory) wrapped() bool {
	for i, b := range d.table {
		if b != 0 && i < d.homeBucket(b) {
			return true
		}
	}
	return false
}

// tagTwins returns pairs of distinct lines whose hashes share their top
// 32 bits, so a probe's hash filter passes and only the entry's own line
// tells them apart.
func tagTwins(pairs int) []addr.LineAddr {
	// d = 64 * C^-1 (mod 2^64): lineHash(l+d) = lineHash(l) + 64.
	const c = 0x9e3779b97f4a7c15
	inv := uint64(c)
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	d := addr.LineAddr(64 * inv)
	var out []addr.LineAddr
	for l := addr.LineAddr(1 << 40); len(out) < 2*pairs; l += 64 {
		if lineHash(l)&slotMask < 1<<20 { // no carry into the top half
			out = append(out, l, l+d)
		}
	}
	return out
}

// TestFlatDirectoryMatchesReference drives the flat directory and the
// map model with identical random Acquire/Lookup/Peek/Release sequences
// (and random sharer/owner changes to the entries they return) for a
// full map, a 2-pointer limited directory and a 64-entry sparse one. After
// every step each line's entry, the victim, Live(), Stats and the
// process-wide gauge must agree. Half the lines hash to the last buckets
// of the table, so probe runs wrap around its end and deletions inside
// those runs must shift later entries back across the wrap; a few pairs
// share their hash filter bits.
func TestFlatDirectoryMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		p    config.DirectoryParams
	}{
		{"fullmap", config.DirectoryParams{}},
		{"limited2", config.DirectoryParams{Scheme: config.DirSchemeLimited, Pointers: 2}},
		{"sparse64", config.DirectoryParams{MaxEntriesPerHome: 64}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				gauge := LiveEntries()
				d := New(0, c.p)
				defer d.Close()
				ref := &refDir{maxEnt: c.p.MaxEntriesPerHome, entries: map[addr.LineAddr]*Entry{}}
				// At most 96 lines live (64 when sparse): the table
				// settles at 128 or 256 buckets.
				twins := tagTwins(4)
				for i := 0; i < len(twins); i += 2 {
					if a, b := twins[i], twins[i+1]; a == b || (lineHash(a)^lineHash(b))>>32 != 0 {
						t.Fatalf("lines %x and %x are not hash-filter twins", uint64(a), uint64(b))
					}
				}
				pool := append(wrapLines(48), twins...)
				for l := addr.LineAddr(1 << 30); len(pool) < 96; l += 64 {
					pool = append(pool, l)
				}
				rng := rand.New(rand.NewSource(seed))
				wrapDeletes := 0 // deletions while a probe run wrapped
				for step := 0; step < 20_000; step++ {
					wrapped, deletes := d.wrapped(), d.Stats.Drops+d.Stats.Evictions
					line := pool[rng.Intn(len(pool))]
					var op string
					switch rng.Intn(6) {
					case 0, 1:
						op = "Acquire"
						e, victim := d.Acquire(line)
						re, rvictim := ref.acquire(line)
						if diff := sameEntry(victim, rvictim); diff != "" {
							t.Fatalf("step %d Acquire(%x) victim: %s", step, uint64(line), diff)
						}
						mutate(rng, d.Pointers(), e, re)
					case 2:
						op = "Lookup"
						e, re := d.Lookup(line), ref.lookup(line)
						if diff := sameEntry(e, re); diff != "" {
							t.Fatalf("step %d Lookup(%x): %s", step, uint64(line), diff)
						}
						if e != nil {
							mutate(rng, d.Pointers(), e, re)
						}
					case 3:
						op = "Peek"
						if diff := sameEntry(d.Peek(line), ref.entries[line]); diff != "" {
							t.Fatalf("step %d Peek(%x): %s", step, uint64(line), diff)
						}
					default:
						op = "Release"
						e, re := d.Lookup(line), ref.lookup(line)
						if e == nil || re == nil {
							break
						}
						if rng.Intn(2) == 0 {
							e.ClearSharers()
							re.ClearSharers()
							e.Owner, re.Owner = -1, -1
						}
						d.Release(e)
						ref.release(re)
					}
					for _, l := range pool {
						if diff := sameEntry(d.Peek(l), ref.entries[l]); diff != "" {
							t.Fatalf("step %d after %s(%x): line %x: %s", step, op, uint64(line), uint64(l), diff)
						}
					}
					if d.Live() != uint64(len(ref.entries)) || d.Stats != ref.stats {
						t.Fatalf("step %d after %s: live %d stats %+v, reference live %d stats %+v",
							step, op, d.Live(), d.Stats, len(ref.entries), ref.stats)
					}
					if got := LiveEntries() - gauge; got != d.Live() {
						t.Fatalf("step %d after %s: gauge moved by %d, live %d", step, op, got, d.Live())
					}
					if wrapped && d.Stats.Drops+d.Stats.Evictions > deletes {
						wrapDeletes++
					}
				}
				if wrapDeletes == 0 {
					t.Fatal("no deletion ever happened while a probe run wrapped around the table")
				}
				if n := len(d.table); n != 128 && n != 256 {
					t.Fatalf("table has %d buckets, want 128 or 256: the wrap-around lines missed its end", n)
				}
				if c.p.MaxEntriesPerHome != 0 && d.Stats.Evictions == 0 {
					t.Fatal("the sparse directory never evicted")
				}
				if d.Stats.Drops == 0 {
					t.Fatal("no entry was ever released")
				}
			})
		}
	}
}
