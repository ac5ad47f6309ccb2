package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, 3, 5, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{42}, 42, 42, 42},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want n=%d q1=%g median=%g q3=%g", tc.xs, s, len(tc.xs), tc.q1, tc.m, tc.q3)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 10, true},
		{9999, 99, 99, true}, // p99.9 has only 9 beyond
		{1000, 99, 10, true},
		{999, 95, 49, true}, // p99 has only 9 beyond
		{200, 95, 10, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, _, ok := tail(xs)
		if ok != tc.ok || p != tc.p {
			t.Errorf("tail of %d samples = p%g ok=%t, want p%g ok=%t", tc.n, p, ok, tc.p, tc.ok)
			continue
		}
		if ok && beyond(tc.n, p) != tc.beyond {
			t.Errorf("%d samples: %d beyond p%g, want %d", tc.n, beyond(tc.n, p), p, tc.beyond)
		}
	}
}

func TestPercentileFallsBackToSupportedTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, note := percentile(xs, 95); math.Abs(v-474.05) > 1e-9 || note != "p95 of 500" {
		t.Errorf("p95 of 500 = %g (%s)", v, note)
	}
	v, note := percentile(xs, 99)
	if !strings.Contains(note, "p95 of 500") || math.Abs(v-474.05) > 1e-9 {
		t.Errorf("p99 of 500 should fall back to p95: %g (%s)", v, note)
	}
}

func TestAccountLoop(t *testing.T) {
	ms := time.Millisecond
	recs := []jobRecord{
		{Client: 0, Start: 0, End: 10 * ms, OK: true, Source: "sim"},
		{Client: 1, Start: 1 * ms, End: 3 * ms, OK: true, Source: "cache"},
		{Client: 1, Start: 3 * ms, End: 5 * ms, OK: false},
		{Client: 0, Start: 10 * ms, End: 20 * ms, OK: true, Source: "sim"},
		{Client: 1, Start: 5 * ms, End: 6 * ms, OK: true, Source: "store"},
	}
	ls, err := accountLoop(recs)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Attempted != 5 || ls.Failed != 1 || ls.Wall != 20*ms {
		t.Fatalf("attempted=%d failed=%d wall=%v", ls.Attempted, ls.Failed, ls.Wall)
	}
	if want := 4 / 0.020; math.Abs(ls.PerSec-want) > 1e-9 {
		t.Errorf("throughput %g, want %g (completed jobs over first submit → last result)", ls.PerSec, want)
	}
	if got := ls.BySource["sim"]; len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Errorf("sim latencies %v", got)
	}
	inf := 0
	for _, l := range ls.Latency {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if len(ls.Latency) != 5 || inf != 1 {
		t.Errorf("a failed job must count as one infinite latency: %v", ls.Latency)
	}

	overlap := append(recs, jobRecord{Client: 0, Start: 15 * ms, End: 16 * ms, OK: true})
	if _, err := accountLoop(overlap); !errors.Is(err, errNotClosedLoop) {
		t.Errorf("two requests in flight from one client: err = %v", err)
	}
	if _, err := accountLoop([]jobRecord{{Start: 2, End: 1}}); err == nil {
		t.Error("a job ending before it starts was accepted")
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	if got["job"] != 100-50-10 || got["a"] != 30 || got["b"] != 60 {
		t.Errorf("self times %v", got)
	}
}
