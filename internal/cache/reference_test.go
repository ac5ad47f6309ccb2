package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// refLine is one way of the reference cache, a plain array-of-structs
// layout with the address, state and stamp side by side.
type refLine struct {
	Addr  addr.LineAddr
	State coherence.LineState
	lru   uint64
}

// refCache is a straightforward array-of-structs set-associative cache
// with the Cache contract: replacement takes the first invalid way, else
// the way with the strictly lowest stamp; hooks fire in the same places.
type refCache struct {
	assoc     int
	lineShift uint
	setMask   uint64
	ways      []refLine
	tick      uint64
	onEvict   func(Line, bool)
	onAlloc   func(Line)
	stats     Stats
}

func newRefCache(sizeBytes uint64, assoc int, lineBytes uint64) *refCache {
	sets := sizeBytes / (lineBytes * uint64(assoc))
	return &refCache{
		assoc:     assoc,
		lineShift: addr.Log2(lineBytes),
		setMask:   sets - 1,
		ways:      make([]refLine, sets*uint64(assoc)),
	}
}

func (c *refCache) set(l addr.LineAddr) []refLine {
	i := ((uint64(l) >> c.lineShift) & c.setMask) * uint64(c.assoc)
	return c.ways[i : i+uint64(c.assoc)]
}

func (c *refCache) probe(l addr.LineAddr) *refLine {
	s := c.set(l)
	for i := range s {
		if s[i].Addr == l && s[i].State.Valid() {
			return &s[i]
		}
	}
	return nil
}

func (c *refCache) lookup(l addr.LineAddr) coherence.LineState {
	if e := c.probe(l); e != nil {
		return e.State
	}
	return coherence.Invalid
}

func (c *refCache) access(l addr.LineAddr) coherence.LineState {
	e := c.probe(l)
	if e == nil {
		c.stats.Misses++
		return coherence.Invalid
	}
	c.stats.Hits++
	c.tick++
	e.lru = c.tick
	return e.State
}

func (c *refCache) touch(l addr.LineAddr) {
	if e := c.probe(l); e != nil {
		c.tick++
		e.lru = c.tick
	}
}

func (c *refCache) promote(l addr.LineAddr, st coherence.LineState) {
	if e := c.probe(l); e != nil {
		e.State = st
		c.tick++
		e.lru = c.tick
	}
}

func (c *refCache) victim(l addr.LineAddr) *refLine {
	s := c.set(l)
	var v *refLine
	for i := range s {
		if !s[i].State.Valid() {
			return &s[i]
		}
		if v == nil || s[i].lru < v.lru {
			v = &s[i]
		}
	}
	return v
}

func (c *refCache) victimFor(l addr.LineAddr) Line {
	v := c.victim(l)
	if !v.State.Valid() {
		return Line{}
	}
	return Line{Addr: v.Addr, State: v.State}
}

func (c *refCache) allocate(l addr.LineAddr, st coherence.LineState) Line {
	if e := c.probe(l); e != nil {
		e.State = st
		c.tick++
		e.lru = c.tick
		return Line{}
	}
	v := c.victim(l)
	var evicted Line
	if v.State.Valid() {
		evicted = Line{Addr: v.Addr, State: v.State}
		c.stats.Evictions++
		if evicted.State.Dirty() {
			c.stats.DirtyEvicts++
		}
		c.onEvict(evicted, true)
	}
	c.tick++
	*v = refLine{Addr: l, State: st, lru: c.tick}
	c.onAlloc(Line{Addr: l, State: st})
	return evicted
}

func (c *refCache) invalidate(l addr.LineAddr) coherence.LineState {
	e := c.probe(l)
	if e == nil {
		return coherence.Invalid
	}
	old := Line{Addr: e.Addr, State: e.State}
	e.State = coherence.Invalid
	c.stats.Invals++
	c.onEvict(old, false)
	return old.State
}

func (c *refCache) setState(l addr.LineAddr, st coherence.LineState) {
	if !st.Valid() {
		c.invalidate(l)
		return
	}
	if e := c.probe(l); e != nil {
		e.State = st
	}
}

func (c *refCache) valid() []Line {
	var out []Line
	for _, w := range c.ways {
		if w.State.Valid() {
			out = append(out, Line{Addr: w.Addr, State: w.State})
		}
	}
	return out
}

// TestPackedCacheMatchesReference drives the packed cache and the
// reference cache with identical random op sequences and requires every
// observable to agree after each op: return values (states, victims,
// evicted lines), the hook call sequence, Stats, and ForEachValid order.
// Each set sees a handful of distinct tags, so hits, conflicts, LRU
// replacement, re-allocation and invalidate/refill of stale ways all
// happen constantly.
func TestPackedCacheMatchesReference(t *testing.T) {
	geometries := []struct {
		name      string
		size      uint64
		assoc     int
		lineBytes uint64
	}{
		{"l2-2way", 16 * 2 * 64, 2, 64},
		{"l1-4way", 8 * 4 * 32, 4, 32},
	}
	states := []coherence.LineState{coherence.Invalid, coherence.Shared, coherence.Exclusive, coherence.Owned, coherence.Modified}
	for _, g := range geometries {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				var got, want []string
				c := New("packed", g.size, g.assoc, g.lineBytes)
				c.OnEvict = func(l Line, ev bool) { got = append(got, fmt.Sprintf("evict %x %v %v", uint64(l.Addr), l.State, ev)) }
				c.OnAllocate = func(l Line) { got = append(got, fmt.Sprintf("alloc %x %v", uint64(l.Addr), l.State)) }
				ref := newRefCache(g.size, g.assoc, g.lineBytes)
				ref.onEvict = func(l Line, ev bool) { want = append(want, fmt.Sprintf("evict %x %v %v", uint64(l.Addr), l.State, ev)) }
				ref.onAlloc = func(l Line) { want = append(want, fmt.Sprintf("alloc %x %v", uint64(l.Addr), l.State)) }

				r := rand.New(rand.NewSource(seed))
				sets := int(c.Sets())
				for step := 0; step < 20_000; step++ {
					// Up to assoc+2 tags per set, so sets overflow regularly.
					tag := r.Intn(g.assoc + 2)
					l := addr.LineAddr((uint64(tag*sets+r.Intn(sets)) << c.lineShift) + 1<<20)
					st := states[1+r.Intn(len(states)-1)]
					var op string
					switch r.Intn(8) {
					case 0, 1:
						op = "Allocate"
						if a, b := c.Allocate(l, st), ref.allocate(l, st); a != b {
							t.Fatalf("step %d Allocate(%x, %v) evicted %+v, reference %+v", step, uint64(l), st, a, b)
						}
					case 2:
						op = "SetState"
						if r.Intn(3) == 0 {
							st = coherence.Invalid
						}
						c.SetState(l, st)
						ref.setState(l, st)
					case 3:
						op = "Promote"
						c.Promote(l, st)
						ref.promote(l, st)
					case 4:
						op = "Invalidate"
						if a, b := c.Invalidate(l), ref.invalidate(l); a != b {
							t.Fatalf("step %d Invalidate(%x) = %v, reference %v", step, uint64(l), a, b)
						}
					case 5:
						op = "Touch"
						c.Touch(l)
						ref.touch(l)
					case 6:
						op = "VictimFor"
						if a, b := c.VictimFor(l), ref.victimFor(l); a != b {
							t.Fatalf("step %d VictimFor(%x) = %+v, reference %+v", step, uint64(l), a, b)
						}
					default:
						op = "Access"
						if a, b := c.Access(l), ref.access(l); a != b {
							t.Fatalf("step %d Access(%x) = %v, reference %v", step, uint64(l), a, b)
						}
					}
					if a, b := c.Lookup(l), ref.lookup(l); a != b {
						t.Fatalf("step %d after %s: Lookup(%x) = %v, reference %v", step, op, uint64(l), a, b)
					}
					// The next victim exposes the replacement order,
					// including which of several ways is the LRU one.
					if a, b := c.VictimFor(l), ref.victimFor(l); a != b {
						t.Fatalf("step %d after %s: VictimFor(%x) = %+v, reference %+v", step, op, uint64(l), a, b)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d after %s: hook calls\n got %q\nwant %q", step, op, got, want)
					}
					got, want = got[:0], want[:0]
					if c.Stats != ref.stats {
						t.Fatalf("step %d after %s: stats %+v, reference %+v", step, op, c.Stats, ref.stats)
					}
				}
				var order []Line
				c.ForEachValid(func(l Line) { order = append(order, l) })
				if !reflect.DeepEqual(order, ref.valid()) {
					t.Fatalf("ForEachValid order\n got %+v\nwant %+v", order, ref.valid())
				}
				if c.CountValid() != len(order) {
					t.Fatalf("CountValid = %d, ForEachValid visited %d", c.CountValid(), len(order))
				}
			})
		}
	}
}
