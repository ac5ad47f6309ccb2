package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// refEntry is one way of the reference RCA, a plain array-of-structs
// layout with the region, stamp, line counts and state side by side.
type refEntry struct {
	Region     addr.RegionAddr
	lru        uint64
	LineCount  int32
	Modifiable int32
	State      RegionState
}

// refRCA is a straightforward array-of-structs RCA with the RCA
// contract: replacement takes the first free way, else the LRU entry with
// no cached lines, else the LRU entry; OnEvict fires while the victim is
// still installed.
type refRCA struct {
	assoc   int
	shift   uint
	setMask uint64
	ways    []refEntry
	tick    uint64
	onEvict func(Entry)
	stats   RCAStats
}

func newRefRCA(geom addr.Geometry, sets uint64, assoc int) *refRCA {
	return &refRCA{
		assoc:   assoc,
		shift:   geom.RegionShift(),
		setMask: sets - 1,
		ways:    make([]refEntry, sets*uint64(assoc)),
	}
}

func (r *refRCA) set(region addr.RegionAddr) []refEntry {
	i := ((uint64(region) >> r.shift) & r.setMask) * uint64(r.assoc)
	return r.ways[i : i+uint64(r.assoc)]
}

func (r *refRCA) probe(region addr.RegionAddr) *refEntry {
	s := r.set(region)
	for i := range s {
		if s[i].Region == region && s[i].State.Valid() {
			return &s[i]
		}
	}
	return nil
}

func (r *refRCA) lookup(region addr.RegionAddr) RegionState {
	e := r.probe(region)
	if e == nil {
		r.stats.Misses++
		return RegionInvalid
	}
	r.stats.Hits++
	r.tick++
	e.lru = r.tick
	return e.State
}

func (r *refRCA) victim(region addr.RegionAddr) *refEntry {
	var free, emptyLRU, anyLRU *refEntry
	s := r.set(region)
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
	switch {
	case free != nil:
		return free
	case emptyLRU != nil:
		return emptyLRU
	}
	return anyLRU
}

func (e *refEntry) entry() Entry {
	return Entry{Region: e.Region, LineCount: e.LineCount, Modifiable: e.Modifiable, State: e.State}
}

func (r *refRCA) victimFor(region addr.RegionAddr) Entry {
	if r.probe(region) != nil {
		return Entry{}
	}
	if v := r.victim(region); v.State.Valid() {
		return v.entry()
	}
	return Entry{}
}

func (r *refRCA) allocate(region addr.RegionAddr, st RegionState) {
	if e := r.probe(region); e != nil {
		e.State = st
		r.tick++
		e.lru = r.tick
		return
	}
	v := r.victim(region)
	if v.State.Valid() {
		r.stats.Evictions++
		r.stats.EvictedByCount[min(v.LineCount, 3)]++
		r.stats.LineSumAtEvict += uint64(v.LineCount)
		r.onEvict(v.entry())
		v.State, v.LineCount, v.Modifiable = RegionInvalid, 0, 0
	}
	r.stats.Allocations++
	r.tick++
	*v = refEntry{Region: region, State: st, lru: r.tick}
}

func (r *refRCA) setState(region addr.RegionAddr, st RegionState) {
	if e := r.probe(region); e != nil {
		e.State = st
		if !st.Valid() {
			e.LineCount, e.Modifiable = 0, 0
		}
	}
}

func (r *refRCA) valid() []Entry {
	var out []Entry
	for i := range r.ways {
		if r.ways[i].State.Valid() {
			out = append(out, r.ways[i].entry())
		}
	}
	return out
}

// TestPackedRCAMatchesReference drives the packed RCA and the reference
// RCA with identical random op sequences and requires every observable to
// agree after each op: return values (states, victims, region snoop
// answers), the entry's state, line count and modifiable count, the
// OnEvict sequence, Stats, and ForEachValid order. Each set sees a
// handful of distinct regions with line counts that rise and fall, and
// cached lines that turn modifiable and back, so hits, conflicts,
// empty-first and LRU replacement, re-allocation and self-invalidation
// of stale ways all happen constantly.
func TestPackedRCAMatchesReference(t *testing.T) {
	geom := addr.MustGeometry(64, 512)
	states := []RegionState{RegionCI, RegionCC, RegionCD, RegionDI, RegionDC, RegionDD}
	lineStates := []coherence.LineState{coherence.Shared, coherence.Exclusive, coherence.Owned, coherence.Modified}
	for _, assoc := range []int{2, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%dway/seed%d", assoc, seed), func(t *testing.T) {
				const sets = 16
				var got, want []string
				r := NewRCA(geom, sets, assoc)
				r.OnEvict = func(e Entry) { got = append(got, fmt.Sprintf("%+v", e)) }
				ref := newRefRCA(geom, sets, assoc)
				ref.onEvict = func(e Entry) { want = append(want, fmt.Sprintf("%+v", e)) }

				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 20_000; step++ {
					// Up to assoc+2 regions per set, so sets overflow regularly.
					tag := rng.Intn(assoc + 2)
					region := addr.RegionAddr(uint64(tag*sets+rng.Intn(sets))*geom.RegionBytes + 1<<24)
					st := states[rng.Intn(len(states))]
					var op string
					switch rng.Intn(9) {
					case 0, 1:
						op = "Allocate"
						r.Allocate(region, st)
						ref.allocate(region, st)
					case 2:
						op = "SetState"
						if rng.Intn(3) == 0 {
							st = RegionInvalid
						}
						r.SetState(region, st)
						ref.setState(region, st)
					case 3:
						op = "Lookup"
						if a, b := r.Lookup(region), ref.lookup(region); a != b {
							t.Fatalf("step %d Lookup(%x) = %v, reference %v", step, uint64(region), a, b)
						}
					case 4, 5:
						op = "IncLineCount"
						if e := ref.probe(region); e != nil {
							ls := lineStates[rng.Intn(len(lineStates))]
							r.IncLineCount(region, ls)
							e.LineCount++
							if ls.Modifiable() {
								e.Modifiable++
							}
						}
					case 6:
						op = "DecLineCount"
						// A dropped line's state must be one the entry
						// counts: modifiable only if some cached line is,
						// and not modifiable only if some cached line is not.
						e := ref.probe(region)
						ls := lineStates[rng.Intn(len(lineStates))]
						switch {
						case e == nil:
						case e.Modifiable == 0:
							ls = coherence.Shared
						case e.Modifiable == e.LineCount:
							ls = lineStates[1+rng.Intn(len(lineStates)-1)]
						}
						if e == nil || e.LineCount > 0 {
							r.DecLineCount(region, ls)
							if e != nil {
								e.LineCount--
								if ls.Modifiable() {
									e.Modifiable--
								}
							}
						}
					case 7:
						op = "ModifiableChanged"
						now := rng.Intn(2) == 0
						if e := ref.probe(region); e == nil {
							r.ModifiableChanged(region, now)
						} else if now && e.Modifiable < e.LineCount {
							r.ModifiableChanged(region, true)
							e.Modifiable++
						} else if !now && e.Modifiable > 0 {
							r.ModifiableChanged(region, false)
							e.Modifiable--
						}
					default:
						op = "VictimFor"
						if a, b := r.VictimFor(region), ref.victimFor(region); a != b {
							t.Fatalf("step %d VictimFor(%x) = %+v, reference %+v", step, uint64(region), a, b)
						}
					}
					e, w := ref.probe(region), r.Probe(region)
					if (e != nil) != (w >= 0) {
						t.Fatalf("step %d after %s: Probe(%x) = %d, reference present=%v", step, op, uint64(region), w, e != nil)
					}
					if e != nil && (r.State(w) != e.State || r.LineCount(w) != e.LineCount || r.ModifiableCount(w) != e.Modifiable) {
						t.Fatalf("step %d after %s: way %d holds %v/%d lines/%d modifiable, reference %v/%d/%d",
							step, op, w, r.State(w), r.LineCount(w), r.ModifiableCount(w), e.State, e.LineCount, e.Modifiable)
					}
					if e != nil {
						if p, m := r.RegionSnoop(w); p != (e.LineCount > 0) || m != (e.Modifiable > 0) {
							t.Fatalf("step %d after %s: RegionSnoop(%d) = (%v, %v), reference %d lines, %d modifiable",
								step, op, w, p, m, e.LineCount, e.Modifiable)
						}
					}
					// The next victim exposes the replacement order,
					// including which of several ways is the LRU one.
					if a, b := r.VictimFor(region), ref.victimFor(region); a != b {
						t.Fatalf("step %d after %s: VictimFor(%x) = %+v, reference %+v", step, op, uint64(region), a, b)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d after %s: OnEvict calls\n got %q\nwant %q", step, op, got, want)
					}
					got, want = got[:0], want[:0]
					if r.Stats != ref.stats {
						t.Fatalf("step %d after %s: stats %+v, reference %+v", step, op, r.Stats, ref.stats)
					}
				}
				var order []Entry
				r.ForEachValid(func(e Entry) { order = append(order, e) })
				if !reflect.DeepEqual(order, ref.valid()) {
					t.Fatalf("ForEachValid order\n got %+v\nwant %+v", order, ref.valid())
				}
				if r.CountValid() != len(order) {
					t.Fatalf("CountValid = %d, ForEachValid visited %d", r.CountValid(), len(order))
				}
			})
		}
	}
}
