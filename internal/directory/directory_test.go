package directory

import (
	"math/rand"
	"reflect"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/config"
)

func fullMap(maxEnt uint64) *Directory {
	return New(0, config.DirectoryParams{MaxEntriesPerHome: maxEnt})
}

func limited(pointers int) *Directory {
	return New(0, config.DirectoryParams{Scheme: config.DirSchemeLimited, Pointers: pointers})
}

func TestFullMapSharerSet(t *testing.T) {
	d := fullMap(0)
	defer d.Close()
	e, victim := d.Acquire(addr.LineAddr(1))
	if victim != nil {
		t.Fatal("unbounded directory evicted")
	}
	// The mask must track processors past 63 — a single uint64 silently
	// drops them (1<<id wraps to 0 for id >= 64).
	for _, id := range []int{0, 5, 63, 64, 127} {
		if e.AddSharer(id, d.Pointers()) {
			t.Fatalf("full map overflowed at sharer %d", id)
		}
	}
	if e.Sharers() != 5 || !e.Has(64) || !e.Has(127) || e.Has(1) {
		t.Fatalf("sharer set wrong: count=%d", e.Sharers())
	}
	e.AddSharer(64, 0) // duplicate: no change
	if e.Sharers() != 5 {
		t.Fatalf("duplicate sharer changed count to %d", e.Sharers())
	}
	e.RemoveSharer(64)
	if e.Has(64) || e.Sharers() != 4 {
		t.Fatal("RemoveSharer failed")
	}
	if e.Uncached() {
		t.Fatal("entry with sharers reported uncached")
	}
}

func TestLimitedPointerOverflow(t *testing.T) {
	d := limited(2)
	defer d.Close()
	e, _ := d.Acquire(addr.LineAddr(9))
	if e.AddSharer(1, d.Pointers()) || e.AddSharer(2, d.Pointers()) {
		t.Fatal("overflow before the pointer budget was exhausted")
	}
	if !e.AddSharer(3, d.Pointers()) || !e.Overflowed {
		t.Fatal("third sharer must overflow a 2-pointer entry")
	}
	// Precision is lost: the entry can't retire silently and every node
	// must be invalidated.
	if e.Uncached() {
		t.Fatal("overflowed entry reported uncached")
	}
	for id := 0; id < 8; id++ {
		if !e.MustInvalidate(id) {
			t.Fatalf("overflowed entry must invalidate node %d", id)
		}
	}
	e.ClearSharers()
	if e.Overflowed || e.Sharers() != 0 || !e.Uncached() {
		t.Fatal("ClearSharers must restore precision")
	}
	if e.MustInvalidate(1) {
		t.Fatal("precise empty entry invalidates no one")
	}
}

func TestSparseEvictionLRU(t *testing.T) {
	d := New(0, config.DirectoryParams{MaxEntriesPerHome: 16})
	defer d.Close()
	for i := 0; i < 16; i++ {
		if _, victim := d.Acquire(addr.LineAddr(i)); victim != nil {
			t.Fatalf("eviction before the bound at entry %d", i)
		}
	}
	// Touch line 0 so line 1 is the LRU victim.
	if d.Lookup(addr.LineAddr(0)) == nil {
		t.Fatal("line 0 missing")
	}
	e, victim := d.Acquire(addr.LineAddr(100))
	if victim == nil || victim.Line() != addr.LineAddr(1) {
		t.Fatalf("victim = %+v, want line 1", victim)
	}
	if e.Line() != addr.LineAddr(100) {
		t.Fatal("acquired entry has wrong line")
	}
	// The victim's state must stay readable until the next Acquire.
	victim.Owner = 3
	if !victim.MustInvalidate(3) {
		t.Fatal("victim state unreadable after eviction")
	}
	if d.Stats.Evictions != 1 || d.Stats.Allocs != 17 || d.Live() != 16 {
		t.Fatalf("stats = %+v live = %d", d.Stats, d.Live())
	}
	if d.Stats.Peak != 16 {
		t.Fatalf("peak = %d, want 16", d.Stats.Peak)
	}
}

func TestReleaseRetiresUncached(t *testing.T) {
	d := fullMap(0)
	defer d.Close()
	e, _ := d.Acquire(addr.LineAddr(7))
	e.Owner = 2
	d.Release(e) // still owned: kept
	if d.Live() != 1 {
		t.Fatal("owned entry released")
	}
	e.Owner = -1
	d.Release(e)
	if d.Live() != 0 || d.Stats.Drops != 1 {
		t.Fatalf("uncached entry kept: live=%d stats=%+v", d.Live(), d.Stats)
	}
	// The recycled entry must come back clean.
	e2, _ := d.Acquire(addr.LineAddr(8))
	if e2.Owner != -1 || e2.Sharers() != 0 || e2.Overflowed {
		t.Fatalf("recycled entry dirty: %+v", e2)
	}
}

func TestAdmitSerialises(t *testing.T) {
	d := fullMap(0)
	defer d.Close()
	if got := d.Admit(100, 20); got != 100 {
		t.Fatalf("idle admit at %d", got)
	}
	if got := d.Admit(105, 20); got != 120 {
		t.Fatalf("busy admit at %d, want 120", got)
	}
	if d.Stats.QueuedCycles != 15 {
		t.Fatalf("queued cycles = %d, want 15", d.Stats.QueuedCycles)
	}
}

func TestLiveEntriesGauge(t *testing.T) {
	before := LiveEntries()
	d := fullMap(0)
	d.Acquire(addr.LineAddr(1))
	d.Acquire(addr.LineAddr(2))
	if got := LiveEntries(); got != before+2 {
		t.Fatalf("gauge = %d, want %d", got, before+2)
	}
	d.Close()
	if got := LiveEntries(); got != before {
		t.Fatalf("gauge after Close = %d, want %d", got, before)
	}
}

// TestImplicatedMatchesMustInvalidate: the iterator must visit exactly
// the nodes MustInvalidate reports, in increasing order, for owners,
// sharers in both mask words, and overflowed entries.
func TestImplicatedMatchesMustInvalidate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2_000; trial++ {
		procs := 1 + r.Intn(MaxProcessors)
		e := &Entry{Owner: -1}
		for i := r.Intn(6); i > 0; i-- {
			e.AddSharer(r.Intn(procs), []int{0, 2}[r.Intn(2)])
		}
		if r.Intn(2) == 0 {
			e.Owner = r.Intn(procs)
		}
		var want, got []int
		for id := 0; id < procs; id++ {
			if e.MustInvalidate(id) {
				want = append(want, id)
			}
		}
		it := e.Implicated(procs)
		for id := it.Next(); id >= 0; id = it.Next() {
			got = append(got, id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d procs, owner %d, overflowed %v): visited %v, want %v",
				trial, procs, e.Owner, e.Overflowed, got, want)
		}
	}
}
