package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of one
// job or run share Req; Parent is the ID of the enclosing span (0: root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// do runs fn inside a span and returns fn's error. fn receives the span's
// ID, to parent the spans it opens.
func (r *recorder) do(name, req string, parent int, fn func(id int) error) error {
	if r == nil {
		return fn(0)
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	r.mu.Unlock()
	start := time.Since(r.epoch)
	err := fn(id)
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = int64(start), int64(end)
	r.mu.Unlock()
	return err
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name, req string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of it that its children cover.
// Children may run concurrently, so their intervals are merged first.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
