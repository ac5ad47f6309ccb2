package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"cgct"
	"cgct/internal/experiments"
)

// labeled is one simulation result with the request that produced it and
// the number of memory ops that request simulates.
type labeled struct {
	Benchmark string       `json:"benchmark"`
	Options   cgct.Options `json:"options"`
	Ops       int64        `json:"ops"`
	Result    *cgct.Result `json:"result"`
}

// label names a request by every option the benchmark sets, normalised,
// so equal requests get equal labels whoever issued them.
func label(benchmark string, o cgct.Options) string {
	_, n := cgct.ResolveConfig(o)
	return fmt.Sprintf("%s|procs=%d|ops=%d|seed=%d|fabric=%s|cgct=%t|region=%d|perturb=%d",
		benchmark, n.Processors, n.OpsPerProc, n.Seed, n.Fabric, n.CGCT, n.RegionBytes, n.PerturbCycles)
}

// checkResult applies the invariants every result must satisfy: each
// fabric request is exactly one of broadcast, direct or local; a snooping
// baseline never avoids a broadcast; a directory fabric never broadcasts.
func checkResult(l labeled) error {
	r := l.Result
	if r == nil {
		return fmt.Errorf("%s: no result", label(l.Benchmark, l.Options))
	}
	if r.Requests != r.Broadcasts+r.Directs+r.Locals {
		return fmt.Errorf("%s: %d requests != %d broadcasts + %d directs + %d locals",
			label(l.Benchmark, l.Options), r.Requests, r.Broadcasts, r.Directs, r.Locals)
	}
	_, o := cgct.ResolveConfig(l.Options)
	switch {
	case o.Directory && r.Broadcasts != 0:
		return fmt.Errorf("%s: directory run made %d broadcasts", label(l.Benchmark, l.Options), r.Broadcasts)
	case !o.Directory && !o.CGCT && r.Directs+r.Locals != 0:
		return fmt.Errorf("%s: snooping baseline made %d directs and %d locals",
			label(l.Benchmark, l.Options), r.Directs, r.Locals)
	}
	return nil
}

// canonical re-encodes a result payload with sorted keys, numbers kept
// verbatim and zero values (0, false, "", null, empty) left out. Leaving
// zeros out means a field that is always zero, such as one echoing how a
// run executed, can be deleted from Result without changing the digest;
// a statistic that moves off zero still changes it.
func canonical(payload []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	v, _ = dropZero(v)
	return json.Marshal(v)
}

// dropZero removes zero values from objects, recursively, and reports
// whether v itself is zero.
func dropZero(v any) (any, bool) {
	switch x := v.(type) {
	case nil:
		return nil, true
	case bool:
		return x, !x
	case string:
		return x, x == ""
	case json.Number:
		f, err := x.Float64()
		return x, err == nil && f == 0
	case []any:
		return x, len(x) == 0
	case map[string]any:
		for k, e := range x {
			if e2, zero := dropZero(e); zero {
				delete(x, k)
			} else {
				x[k] = e2
			}
		}
		return x, len(x) == 0
	}
	return v, false
}

func canonicalResult(r *cgct.Result) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return canonical(b)
}

// digest is the sha256 over every result's label and canonical JSON, in
// label order. Same simulated statistics, same digest.
func digest(ls []labeled) (string, error) {
	sorted := append([]labeled(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool {
		return label(sorted[i].Benchmark, sorted[i].Options) < label(sorted[j].Benchmark, sorted[j].Options)
	})
	h := sha256.New()
	for _, l := range sorted {
		c, err := canonicalResult(l.Result)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%s\n", label(l.Benchmark, l.Options), c)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sameResult reports an error unless a and b carry the same simulated
// statistics.
func sameResult(what string, a, b *cgct.Result) error {
	ca, err := canonicalResult(a)
	if err != nil {
		return err
	}
	cb, err := canonicalResult(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ca, cb) {
		return fmt.Errorf("%s: results differ:\n  %s\n  %s", what, ca, cb)
	}
	return nil
}

// reductionRows computes Figure 8's run-time reduction, per benchmark and
// region size, from a workload's results: each CGCT run against the
// baseline run of the same benchmark under otherwise equal options. The
// arithmetic is Figure8's, so a single-seed row is bit-identical to it.
func reductionRows(ls []labeled) []experiments.Figure8Row {
	base := map[string]*cgct.Result{}
	for _, l := range ls {
		if !l.Options.CGCT {
			base[label(l.Benchmark, l.Options)] = l.Result
		}
	}
	var rows []experiments.Figure8Row
	idx := map[string]int{}
	for _, l := range ls {
		if !l.Options.CGCT {
			continue
		}
		o := l.Options
		o.CGCT, o.RegionBytes = false, 0
		b := base[label(l.Benchmark, o)]
		if b == nil {
			continue
		}
		i, ok := idx[l.Benchmark]
		if !ok {
			i = len(rows)
			idx[l.Benchmark] = i
			rows = append(rows, experiments.Figure8Row{Benchmark: l.Benchmark, Reduction: map[uint64]experiments.Sample{}})
		}
		red := 100 * (float64(b.Cycles) - float64(l.Result.Cycles)) / float64(b.Cycles)
		rows[i].Reduction[l.Result.RegionBytes] = experiments.Sample{Mean: red}
	}
	return rows
}

// sameRows reports an error unless two Figure-8 tables are identical.
func sameRows(got, want []experiments.Figure8Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("figure 8 has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Benchmark != w.Benchmark || len(g.Reduction) != len(w.Reduction) {
			return fmt.Errorf("figure 8 row %d: got %s with %d sizes, want %s with %d",
				i, g.Benchmark, len(g.Reduction), w.Benchmark, len(w.Reduction))
		}
		for rb, ws := range w.Reduction {
			if gs, ok := g.Reduction[rb]; !ok || gs != ws {
				return fmt.Errorf("figure 8 %s at %d B: got %+v, want %+v", w.Benchmark, rb, gs, ws)
			}
		}
	}
	return nil
}

// gate collects correctness failures; the run reports no metrics unless
// it stays empty.
type gate struct{ failures []error }

func (g *gate) check(err error) {
	if err != nil {
		g.failures = append(g.failures, err)
	}
}

func (g *gate) err() error { return errors.Join(g.failures...) }
