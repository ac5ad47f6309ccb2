package core

import (
	"testing"
	"unsafe"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

func testRCA() *RCA {
	return NewRCA(addr.MustGeometry(64, 512), 4, 2) // tiny: 4 sets, 2 ways
}

// regionInSet returns the i'th distinct region mapping to the given set.
func regionInSet(set, i uint64) addr.RegionAddr {
	return addr.RegionAddr((i*4 + set) * 512)
}

// TestEntrySize pins the RCA's host footprint per entry: one tag word
// (region and state), one replacement stamp and one line count, 20 bytes.
// A 16-processor system probes hundreds of thousands of entries, so a
// field added or widened carelessly shows up directly in simulator speed.
func TestEntrySize(t *testing.T) {
	r := testRCA()
	bytes := uintptr(cap(r.tags))*unsafe.Sizeof(r.tags[0]) +
		uintptr(cap(r.lrus))*unsafe.Sizeof(r.lrus[0]) +
		uintptr(cap(r.counts))*unsafe.Sizeof(r.counts[0])
	if per := bytes / uintptr(r.Entries()); per != 20 {
		t.Errorf("RCA holds %d host bytes per entry, want 20", per)
	}
	if got := unsafe.Sizeof(r.tags[0]); got != 8 {
		t.Errorf("a probe reads %d-byte tag words, want 8", got)
	}
}

func TestLookupMiss(t *testing.T) {
	r := testRCA()
	if st := r.Lookup(regionInSet(0, 0)); st != RegionInvalid {
		t.Errorf("lookup on empty = %v", st)
	}
	if r.Stats.Misses != 1 {
		t.Errorf("misses = %d", r.Stats.Misses)
	}
}

func TestAllocateAndLookup(t *testing.T) {
	r := testRCA()
	reg := regionInSet(1, 0)
	r.Allocate(reg, RegionCI)
	if st := r.Lookup(reg); st != RegionCI {
		t.Errorf("lookup = %v", st)
	}
	if w := r.Probe(reg); w < 0 || r.State(w) != RegionCI {
		t.Errorf("probe = %d", w)
	}
	if r.Stats.Hits != 1 || r.Stats.Allocations != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestAllocateUpdatesInPlace(t *testing.T) {
	r := testRCA()
	reg := regionInSet(2, 0)
	r.Allocate(reg, RegionCI)
	r.IncLineCount(reg, coherence.Shared)
	r.Allocate(reg, RegionDD)
	w := r.Probe(reg)
	if r.State(w) != RegionDD {
		t.Errorf("state = %v", r.State(w))
	}
	if r.LineCount(w) != 1 {
		t.Error("re-allocation lost the line count")
	}
	if r.Stats.Allocations != 1 {
		t.Error("in-place update counted as allocation")
	}
}

func TestReplacementFavorsEmptyRegions(t *testing.T) {
	r := testRCA()
	a, b, c := regionInSet(0, 0), regionInSet(0, 1), regionInSet(0, 2)
	r.Allocate(a, RegionDI)
	r.IncLineCount(a, coherence.Shared) // a has cached lines
	r.Allocate(b, RegionCI)
	// b is empty; despite a being LRU, b must be the victim (§3.2).
	if v := r.VictimFor(c); v.Region != b {
		t.Errorf("victim = %x, want empty region %x", uint64(v.Region), uint64(b))
	}
	r.Allocate(c, RegionDI)
	if r.Probe(b) >= 0 {
		t.Error("empty region survived")
	}
	if r.Probe(a) < 0 {
		t.Error("non-empty region was evicted instead")
	}
	if r.Stats.EvictedByCount[0] != 1 {
		t.Errorf("eviction histogram = %+v", r.Stats.EvictedByCount)
	}
}

func TestReplacementFallsBackToLRU(t *testing.T) {
	r := testRCA()
	a, b, c := regionInSet(1, 0), regionInSet(1, 1), regionInSet(1, 2)
	r.Allocate(a, RegionDI)
	r.IncLineCount(a, coherence.Shared)
	r.Allocate(b, RegionDI)
	r.IncLineCount(b, coherence.Shared)
	r.Lookup(a) // refresh a; b becomes LRU
	r.Allocate(c, RegionCI)
	if r.Probe(b) >= 0 {
		t.Error("LRU non-empty region should have been evicted")
	}
	if r.Stats.EvictedByCount[1] != 1 {
		t.Errorf("eviction histogram = %+v", r.Stats.EvictedByCount)
	}
}

func TestOnEvictFiresWhileInstalled(t *testing.T) {
	r := testRCA()
	a, b, c := regionInSet(3, 0), regionInSet(3, 1), regionInSet(3, 2)
	r.Allocate(a, RegionDI)
	r.Allocate(b, RegionCI)
	r.IncLineCount(b, coherence.Shared)
	fired := false
	r.OnEvict = func(e Entry) {
		fired = true
		if e.Region != a {
			t.Errorf("evicted %x, want %x", uint64(e.Region), uint64(a))
		}
		if e.State != RegionDI {
			t.Errorf("victim state %v, want DI", e.State)
		}
		// The entry must still be probe-able during the flush.
		if r.Probe(a) < 0 {
			t.Error("victim not installed during OnEvict")
		}
	}
	r.Allocate(c, RegionCI) // a is empty -> victim
	if !fired {
		t.Error("OnEvict did not fire")
	}
	if r.Probe(a) >= 0 {
		t.Error("victim still present after eviction")
	}
}

func TestLineCountTracking(t *testing.T) {
	r := testRCA()
	reg := regionInSet(0, 3)
	r.Allocate(reg, RegionDI)
	r.IncLineCount(reg, coherence.Shared)
	r.IncLineCount(reg, coherence.Shared)
	r.DecLineCount(reg, coherence.Shared)
	if n := r.LineCount(r.Probe(reg)); n != 1 {
		t.Errorf("line count = %d", n)
	}
	// Dec on a missing region is tolerated (mid-eviction).
	r.DecLineCount(regionInSet(0, 5), coherence.Shared)
}

// TestModifiableCountTracking: the modifiable half of the count word
// follows fills, drops and in-place state changes of E/O/M lines, and the
// region snoop answer reads it.
func TestModifiableCountTracking(t *testing.T) {
	r := testRCA()
	reg := regionInSet(1, 2)
	r.Allocate(reg, RegionDD)
	w := r.Probe(reg)
	snoop := func(wantPresent, wantModifiable bool) {
		t.Helper()
		if p, m := r.RegionSnoop(w); p != wantPresent || m != wantModifiable {
			t.Fatalf("RegionSnoop = (%v, %v), want (%v, %v)", p, m, wantPresent, wantModifiable)
		}
	}
	snoop(false, false)
	r.IncLineCount(reg, coherence.Shared)
	snoop(true, false)
	r.IncLineCount(reg, coherence.Exclusive)
	r.IncLineCount(reg, coherence.Owned)
	if r.LineCount(w) != 3 || r.ModifiableCount(w) != 2 {
		t.Fatalf("counts = %d/%d, want 3/2", r.LineCount(w), r.ModifiableCount(w))
	}
	snoop(true, true)
	r.ModifiableChanged(reg, false) // E→S
	r.DecLineCount(reg, coherence.Owned)
	snoop(true, false)
	r.ModifiableChanged(reg, true) // S→M
	snoop(true, true)
	if e := r.wayEntry(w); e.LineCount != 2 || e.Modifiable != 1 {
		t.Fatalf("entry = %+v, want 2 lines, 1 modifiable", e)
	}
	r.DecLineCount(reg, coherence.Modified)
	r.DecLineCount(reg, coherence.Shared)
	snoop(false, false)
	// Changes on a missing region are tolerated, as DecLineCount's are.
	r.ModifiableChanged(regionInSet(1, 5), true)
	defer func() {
		if recover() == nil {
			t.Error("negative modifiable count did not panic")
		}
	}()
	r.ModifiableChanged(reg, false)
}

func TestIncLineCountWithoutEntryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IncLineCount without entry did not panic (inclusion violation)")
		}
	}()
	testRCA().IncLineCount(regionInSet(0, 0), coherence.Shared)
}

func TestNegativeLineCountPanics(t *testing.T) {
	r := testRCA()
	reg := regionInSet(0, 0)
	r.Allocate(reg, RegionCI)
	defer func() {
		if recover() == nil {
			t.Error("negative line count did not panic")
		}
	}()
	r.DecLineCount(reg, coherence.Shared)
}

func TestSetStateInvalidClears(t *testing.T) {
	r := testRCA()
	reg := regionInSet(2, 1)
	r.Allocate(reg, RegionDD)
	r.SetState(reg, RegionInvalid)
	if r.Probe(reg) >= 0 {
		t.Error("SetState(I) did not remove the entry")
	}
	// No-op when absent.
	r.SetState(regionInSet(2, 2), RegionCC)
}

func TestAllocateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("allocating RegionInvalid did not panic")
		}
	}()
	testRCA().Allocate(regionInSet(0, 0), RegionInvalid)
}

func TestEvictionStats(t *testing.T) {
	r := testRCA()
	// Fill one set and overflow it repeatedly.
	for i := uint64(0); i < 6; i++ {
		reg := regionInSet(0, i)
		r.Allocate(reg, RegionCI)
	}
	if r.Stats.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", r.Stats.Evictions)
	}
	if got := r.Stats.EmptyEvictFraction(); got != 1.0 {
		t.Errorf("empty fraction = %v, want 1.0", got)
	}
	if r.CountValid() != 2 {
		t.Errorf("valid = %d", r.CountValid())
	}
}

func TestForEachValid(t *testing.T) {
	r := testRCA()
	r.Allocate(regionInSet(0, 0), RegionCI)
	r.Allocate(regionInSet(1, 0), RegionDD)
	n := 0
	r.ForEachValid(func(Entry) { n++ })
	if n != 2 {
		t.Errorf("ForEachValid visited %d", n)
	}
}

func TestGeometryAccessors(t *testing.T) {
	r := testRCA()
	if r.Sets() != 4 || r.Assoc() != 2 || r.Entries() != 8 {
		t.Errorf("geometry accessors: %d/%d/%d", r.Sets(), r.Assoc(), r.Entries())
	}
	if r.Geometry().RegionBytes != 512 {
		t.Error("geometry lost")
	}
}
