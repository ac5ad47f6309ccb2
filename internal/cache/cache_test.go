package cache

import (
	"testing"
	"testing/quick"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

func small() *Cache { return New("t", 8*64*2, 2, 64) } // 8 sets, 2 ways

func line(set, tag uint64) addr.LineAddr {
	return addr.LineAddr((tag*8 + set) * 64)
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := small()
	if st := c.Lookup(line(0, 0)); st != coherence.Invalid {
		t.Errorf("empty cache lookup = %v", st)
	}
	if c.CountValid() != 0 {
		t.Error("empty cache has valid lines")
	}
}

func TestAllocateAndLookup(t *testing.T) {
	c := small()
	l := line(3, 7)
	if ev := c.Allocate(l, coherence.Shared); ev.State.Valid() {
		t.Error("allocation into empty set evicted")
	}
	if st := c.Lookup(l); st != coherence.Shared {
		t.Errorf("lookup after allocate = %v", st)
	}
}

func TestAllocateUpdatesExisting(t *testing.T) {
	c := small()
	l := line(1, 1)
	c.Allocate(l, coherence.Shared)
	c.Allocate(l, coherence.Modified)
	if c.Lookup(l) != coherence.Modified {
		t.Error("re-allocation did not update state")
	}
	if c.CountValid() != 1 {
		t.Error("re-allocation duplicated the line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	a, b, d := line(2, 1), line(2, 2), line(2, 3)
	c.Allocate(a, coherence.Shared)
	c.Allocate(b, coherence.Shared)
	c.Touch(a) // b is now LRU
	ev := c.Allocate(d, coherence.Shared)
	if ev.Addr != b || !ev.State.Valid() {
		t.Errorf("evicted %x, want %x", uint64(ev.Addr), uint64(b))
	}
	if c.Lookup(a) == coherence.Invalid || c.Lookup(d) == coherence.Invalid {
		t.Error("survivors missing")
	}
	if c.Lookup(b) != coherence.Invalid {
		t.Error("victim still present")
	}
}

func TestVictimFor(t *testing.T) {
	c := small()
	a, b, d := line(4, 1), line(4, 2), line(4, 3)
	if v := c.VictimFor(d); v.State.Valid() {
		t.Error("victim in empty set")
	}
	c.Allocate(a, coherence.Shared)
	c.Allocate(b, coherence.Modified)
	v := c.VictimFor(d)
	if v.Addr != a {
		t.Errorf("victim = %x, want LRU %x", uint64(v.Addr), uint64(a))
	}
	// VictimFor must not modify the cache.
	if c.CountValid() != 2 {
		t.Error("VictimFor modified the cache")
	}
}

func TestEvictionHooksAndStats(t *testing.T) {
	c := small()
	var evictions, invals int
	c.OnEvict = func(l Line, wasEviction bool) {
		if wasEviction {
			evictions++
		} else {
			invals++
		}
	}
	var allocs int
	c.OnAllocate = func(Line) { allocs++ }
	a, b, d := line(5, 1), line(5, 2), line(5, 3)
	c.Allocate(a, coherence.Modified)
	c.Allocate(b, coherence.Shared)
	c.Allocate(d, coherence.Shared) // evicts a (dirty)
	c.Invalidate(b)
	if evictions != 1 || invals != 1 || allocs != 3 {
		t.Errorf("hooks: evictions=%d invals=%d allocs=%d", evictions, invals, allocs)
	}
	if c.Stats.Evictions != 1 || c.Stats.DirtyEvicts != 1 || c.Stats.Invals != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestSetStateInvalidRemoves(t *testing.T) {
	c := small()
	l := line(0, 9)
	c.Allocate(l, coherence.Exclusive)
	c.SetState(l, coherence.Invalid)
	if c.Lookup(l) != coherence.Invalid {
		t.Error("SetState(I) did not remove the line")
	}
	// No-op on absent line.
	c.SetState(line(0, 10), coherence.Shared)
}

func TestInvalidateReturnsPrior(t *testing.T) {
	c := small()
	l := line(6, 4)
	if st := c.Invalidate(l); st != coherence.Invalid {
		t.Errorf("invalidate absent = %v", st)
	}
	c.Allocate(l, coherence.Owned)
	if st := c.Invalidate(l); st != coherence.Owned {
		t.Errorf("invalidate returned %v, want O", st)
	}
}

func TestAccessStats(t *testing.T) {
	c := small()
	l := line(7, 2)
	if c.Access(l).Valid() {
		t.Error("hit on absent line")
	}
	c.Allocate(l, coherence.Shared)
	if !c.Access(l).Valid() {
		t.Error("miss on present line")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if r := c.Stats.MissRatio(); r != 0.5 {
		t.Errorf("miss ratio = %v", r)
	}
}

func TestAllocateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("allocating Invalid state did not panic")
		}
	}()
	small().Allocate(line(0, 0), coherence.Invalid)
}

func TestRegionSnoop(t *testing.T) {
	c := New("t2", 1<<16, 2, 64)
	g := addr.MustGeometry(64, 512)
	r := g.Region(addr.Addr(0x10000))
	p, m := c.RegionSnoop(g, r)
	if p || m {
		t.Error("empty cache reports region presence")
	}
	c.Allocate(g.LineInRegion(r, 2), coherence.Shared)
	p, m = c.RegionSnoop(g, r)
	if !p || m {
		t.Errorf("shared line: present=%v modifiable=%v", p, m)
	}
	// Exclusive counts as modifiable-capable (silent E->M upgrades).
	c.Allocate(g.LineInRegion(r, 5), coherence.Exclusive)
	p, m = c.RegionSnoop(g, r)
	if !p || !m {
		t.Errorf("exclusive line: present=%v modifiable=%v", p, m)
	}
}

// TestNoDuplicateTagsProperty: after any sequence of allocations and
// invalidations, a set never holds two valid entries with the same address,
// and CountValid stays within capacity.
func TestNoDuplicateTagsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		for _, op := range ops {
			l := line(uint64(op)%8, uint64(op>>3)%16)
			switch op % 3 {
			case 0:
				c.Allocate(l, coherence.Shared)
			case 1:
				c.Allocate(l, coherence.Modified)
			default:
				c.Invalidate(l)
			}
		}
		// Check duplicates.
		seen := map[addr.LineAddr]int{}
		c.ForEachValid(func(l Line) { seen[l.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return c.CountValid() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConservationProperty: allocations - (evictions + invalidations) ==
// valid lines.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		allocs := 0
		c.OnAllocate = func(Line) { allocs++ }
		removed := 0
		c.OnEvict = func(Line, bool) { removed++ }
		for _, op := range ops {
			l := line(uint64(op)%8, uint64(op>>3)%16)
			if op%4 == 0 {
				c.Invalidate(l)
			} else if c.Probe(l) < 0 {
				c.Allocate(l, coherence.Shared)
			}
		}
		return allocs-removed == c.CountValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
