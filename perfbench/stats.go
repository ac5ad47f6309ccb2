package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cgct/internal/stats"
)

// summary is a sample's count, median and quartiles (R-7 interpolation,
// the estimator internal/stats uses everywhere else in the repository).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q := stats.Quantiles(xs, 0.25, 0.5, 0.75)
	return summary{N: len(xs), Q1: q[0], Median: q[1], Q3: q[2]}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a p99 of 200 samples is the second-largest value,
// not a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail is reported at, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// beyond returns how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// tail returns the highest candidate percentile with at least minBeyond
// samples beyond it, and that percentile's value. ok is false when even
// the median lacks the samples.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(len(xs), c) >= minBeyond {
			return c, stats.Quantiles(xs, c/100)[0], true
		}
	}
	return 0, 0, false
}

// percentile returns the p-th percentile of xs when at least minBeyond
// samples lie beyond it; otherwise the highest supported tail and a note
// naming the percentile actually reported.
func percentile(xs []float64, p float64) (v float64, note string) {
	if len(xs) == 0 {
		return 0, "no samples"
	}
	if beyond(len(xs), p) >= minBeyond {
		return stats.Quantiles(xs, p/100)[0], fmt.Sprintf("p%g of %d", p, len(xs))
	}
	tp, tv, ok := tail(xs)
	if !ok {
		return stats.Quantiles(xs, 0.5)[0], fmt.Sprintf("median of only %d samples", len(xs))
	}
	return tv, fmt.Sprintf("p%g of %d (too few samples for p%g)", tp, len(xs), p)
}

// jobRecord is one closed-loop request: which client sent it, when it was
// submitted and when its result arrived (offsets from the loop's start),
// and where the result came from.
type jobRecord struct {
	Client  int           `json:"client"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	OK      bool          `json:"ok"`
	Source  string        `json:"source"` // sim, cache, store or peer
	QueueMs float64       `json:"queue_ms"`
}

// loopStats is the closed-loop accounting of one run of clients.
type loopStats struct {
	Attempted int
	Failed    int
	Wall      time.Duration
	PerSec    float64              // completed jobs per second of wall time
	Latency   []float64            // submit→result, ms; a failed job is +Inf
	BySource  map[string][]float64 // successful jobs' latency, ms
}

var errNotClosedLoop = errors.New("client submitted before its previous result arrived")

// accountLoop derives throughput and latency from a closed loop's records.
// Wall time runs from the first submit to the last result. A failed job
// counts against throughput and as an infinite latency, so it misses any
// latency limit. Records that show a client with two requests in flight
// are rejected: the figures would not describe a closed loop.
func accountLoop(recs []jobRecord) (loopStats, error) {
	ls := loopStats{Attempted: len(recs), BySource: map[string][]float64{}}
	if len(recs) == 0 {
		return ls, errors.New("no jobs")
	}
	byClient := map[int][]jobRecord{}
	first, last := recs[0].Start, recs[0].End
	for _, r := range recs {
		if r.End < r.Start {
			return ls, fmt.Errorf("job of client %d ends before it starts", r.Client)
		}
		byClient[r.Client] = append(byClient[r.Client], r)
		first, last = min(first, r.Start), max(last, r.End)
		if !r.OK {
			ls.Failed++
			ls.Latency = append(ls.Latency, math.Inf(1))
			continue
		}
		ms := float64(r.End-r.Start) / float64(time.Millisecond)
		ls.Latency = append(ls.Latency, ms)
		ls.BySource[r.Source] = append(ls.BySource[r.Source], ms)
	}
	for c, rs := range byClient {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		for i := 1; i < len(rs); i++ {
			if rs[i].Start < rs[i-1].End {
				return ls, fmt.Errorf("client %d: %w", c, errNotClosedLoop)
			}
		}
	}
	ls.Wall = last - first
	if ls.Wall > 0 {
		ls.PerSec = float64(ls.Attempted-ls.Failed) / ls.Wall.Seconds()
	}
	return ls, nil
}
