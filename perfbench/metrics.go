package main

import (
	"context"
	"math"

	"cgct"
	"cgct/internal/experiments"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports with tracing off, each
// measured per iteration and reported as the median over iterations.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},             // spawn → ready: process start, plus fleet boot on serve-fleet
	{"wall_s", "s", "lower"},              // the timed section of one iteration
	{"peak_heap_mb", "MB", "lower"},       // peak bytes in heap objects during the timed section
	{"sim_mops_per_s", "Mop/s", "higher"}, // memory ops of the runs or jobs answered, per host second
	{"jobs_per_s", "1/s", "higher"},       // simulations (sweeps) or jobs (fleet) completed per host second
}

// Figure 8's reference averages at 512 B, the only reference results the
// repository holds.
const (
	paperOverallPct    = 8.8
	paperCommercialPct = 10.4
)

// perLayer are the metrics a traced run reports.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace.compile_ns_per_op", "ns", "lower"},
		{"trace.decode_ns_per_op", "ns", "lower"},
		{"trace.cache_hit_ratio", "ratio", "higher"},
		{"sim.new_ms", "ms", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.events_per_op", "count", "lower"},
		{"sim.alloc_mb_per_run", "MB", "lower"},
		{"cgct.pool_cpu_per_wall", "ratio", "higher"},
		{"bus.broadcasts_per_kop", "count", "lower"},
		{"bus.avoided_frac", "ratio", "higher"},
		{"oracle.unnecessary_frac", "ratio", "lower"},
		{"core.rca_hit_ratio", "ratio", "higher"},
		{"cache.l2_miss_ratio", "ratio", "lower"},
		{"memctrl.avg_miss_latency_cycles", "cycles", "lower"},
	}
	for _, b := range cgct.PaperBenchmarks() {
		defs = append(defs, metricDef{"fig8." + b + ".reduction_512_pct", "%", "higher"})
	}
	return append(defs, []metricDef{
		{"directory.messages_per_kop", "count", "lower"},
		{"directory.three_hops_per_kop", "count", "lower"},
		{"server.queue_wait_ms_p50", "ms", "lower"},
		{"server.queue_wait_ms_p99", "ms", "lower"},
		{"runcache.hit_ratio", "ratio", "higher"},
		{"server.share.sim", "ratio", "lower"},
		{"server.share.cache", "ratio", "higher"},
		{"server.share.store", "ratio", "higher"},
		{"server.share.peer", "ratio", "higher"},
		{"store.get_ms_p50", "ms", "lower"},
		{"store.put_ms_p50", "ms", "lower"},
		{"cluster.fetch_ms_p50", "ms", "lower"},
		{"cluster.replication_lag_ms_p50", "ms", "lower"},
		{"job_p50_ms", "ms", "lower"},
		{"job_p99_ms", "ms", "lower"},
		{"job_sim_p50_ms", "ms", "lower"},
		{"job_cache_p50_ms", "ms", "lower"},
		{"job_store_p50_ms", "ms", "lower"},
		{"job_peer_p50_ms", "ms", "lower"},
		{"trace_overhead_pct", "%", "lower"},
	}...)
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func unitOf(name string) string {
	for _, d := range append(perLayer(), endToEnd...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// host summarises a host-time sample.
func host(name string, xs []float64) measured {
	s := summarize(xs)
	return measured{Value: s.Median, Unit: unitOf(name), N: s.N, Q1: s.Q1, Q3: s.Q3, Kind: "host"}
}

func perIter(outs []*iterOut, f func(*iterOut) float64) []float64 {
	var xs []float64
	for _, o := range outs {
		xs = append(xs, f(o))
	}
	return xs
}

// endToEndValues summarises the untraced iterations; setups holds the
// set-up times of those and of the set-up-only children.
func endToEndValues(plain []*iterOut, setups []float64) map[string]measured {
	return map[string]measured{
		"setup_s":      host("setup_s", setups),
		"wall_s":       host("wall_s", perIter(plain, func(o *iterOut) float64 { return o.WallS })),
		"peak_heap_mb": host("peak_heap_mb", perIter(plain, func(o *iterOut) float64 { return o.PeakHeapMB })),
		"sim_mops_per_s": host("sim_mops_per_s", perIter(plain, func(o *iterOut) float64 {
			return float64(o.SimOps) / o.WallS / 1e6
		})),
		"jobs_per_s": host("jobs_per_s", perIter(plain, func(o *iterOut) float64 { return float64(o.Units) / o.WallS })),
	}
}

// workloadValues are the end-to-end numbers that exist on one workload
// only, so carry no bound: the error rate, the model's distance from the
// paper where the workload runs Figure 8's pairs, and the fleet's
// submit→result latency by result source.
func workloadValues(sp *spec, plain []*iterOut, results []labeled) map[string]measured {
	m := map[string]measured{}
	var attempted, failed int
	for _, o := range plain {
		attempted += o.Attempted
		failed += o.Failed
	}
	m["error_rate"] = measured{Value: float64(failed) / float64(attempted), Unit: "ratio", N: attempted, Kind: "host"}
	if rows := reductionRows(results); len(rows) == len(cgct.PaperBenchmarks()) {
		overall, commercial := experiments.Figure8Averages(rows, 512)
		m["fig8_gap_pp"] = measured{Value: math.Abs(overall - paperOverallPct), Unit: "pp", N: len(rows), Kind: "simulated",
			Note: "vs the paper's 8.8% overall at 512 B"}
		m["fig8_commercial_gap_pp"] = measured{Value: math.Abs(commercial - paperCommercialPct), Unit: "pp", N: len(rows), Kind: "simulated",
			Note: "vs the paper's 10.4% commercial at 512 B"}
	}
	if sp.name == "serve-fleet" {
		for k, v := range jobLatencies(plain) {
			m[k] = v
		}
	}
	return m
}

// jobLatencies pools the closed-loop latencies of the given iterations.
func jobLatencies(outs []*iterOut) map[string]measured {
	var all []float64
	by := map[string][]float64{}
	for _, o := range outs {
		if o.Serve == nil {
			continue
		}
		ls, err := accountLoop(o.Serve.Jobs)
		if err != nil {
			continue // the gate reports it
		}
		all = append(all, ls.Latency...)
		for k, v := range ls.BySource {
			by[k] = append(by[k], v...)
		}
	}
	m := map[string]measured{"job_p50_ms": host("job_p50_ms", all)}
	p99, note := percentile(all, 99)
	m["job_p99_ms"] = measured{Value: p99, Unit: "ms", N: len(all), Kind: "host", Note: note}
	for _, src := range []string{"sim", "cache", "store", "peer"} {
		name := "job_" + src + "_p50_ms"
		m[name] = host(name, by[src])
	}
	return m
}

// perLayerValues derives the per-layer metrics of a traced run.
func perLayerValues(plain, traced []*iterOut, results []labeled) map[string]measured {
	m := simCounts(results)
	var spans []span
	var probe *probeOut
	var serve []*iterOut
	for _, o := range traced {
		spans = append(spans, o.Spans...)
		if o.Probe != nil {
			probe = o.Probe
		}
		if o.Serve != nil {
			serve = append(serve, o)
		}
	}
	sumNs := func(name string) float64 {
		var t float64
		for _, d := range spanDurs(spans, name) {
			t += d
		}
		return t * 1e6
	}
	if probe != nil {
		m["trace.compile_ns_per_op"] = measured{Value: sumNs("trace.Compile") / float64(probe.TraceOps), Unit: "ns", N: int(probe.TraceOps), Kind: "host"}
		m["trace.decode_ns_per_op"] = measured{Value: sumNs("trace.Cursor.Fill") / float64(probe.TraceOps), Unit: "ns", N: int(probe.TraceOps), Kind: "host"}
		m["sim.new_ms"] = host("sim.new_ms", spanDurs(spans, "sim.New"))
		m["sim.ns_per_event"] = measured{Value: sumNs("sim.System.RunContext") / float64(probe.Events), Unit: "ns", N: int(probe.Events), Kind: "host"}
		m["sim.events_per_op"] = measured{Value: float64(probe.Events) / float64(probe.RunOps), Unit: "count", N: probe.Runs, Kind: "simulated"}
		m["sim.alloc_mb_per_run"] = host("sim.alloc_mb_per_run", probe.AllocMB)
	}
	m["trace.cache_hit_ratio"] = host("trace.cache_hit_ratio", perIter(traced, func(o *iterOut) float64 { return o.TraceHitRatio }))
	m["cgct.pool_cpu_per_wall"] = host("cgct.pool_cpu_per_wall", perIter(traced, func(o *iterOut) float64 { return o.CPUS / o.WallS }))

	var queue []float64
	var hits, misses uint64
	shares := map[string]int{}
	ok := 0
	for _, o := range serve {
		hits += o.Serve.CacheHits
		misses += o.Serve.CacheMisses
		for _, j := range o.Serve.Jobs {
			if j.OK {
				ok++
				shares[j.Source]++
				queue = append(queue, j.QueueMs)
			}
		}
	}
	m["server.queue_wait_ms_p50"] = host("server.queue_wait_ms_p50", queue)
	q99, note := percentile(queue, 99)
	m["server.queue_wait_ms_p99"] = measured{Value: q99, Unit: "ms", N: len(queue), Kind: "host", Note: note}
	m["runcache.hit_ratio"] = measured{Value: ratio(float64(hits), float64(hits+misses)), Unit: "ratio", N: int(hits + misses), Kind: "host"}
	for _, src := range []string{"sim", "cache", "store", "peer"} {
		m["server.share."+src] = measured{Value: ratio(float64(shares[src]), float64(ok)), Unit: "ratio", N: ok, Kind: "host"}
	}
	for name, span := range map[string]string{
		"store.get_ms_p50":               "store.Store.Get",
		"store.put_ms_p50":               "store.Store.Put",
		"cluster.fetch_ms_p50":           "cluster.Cluster.Fetch",
		"cluster.replication_lag_ms_p50": "replication.lag",
	} {
		m[name] = host(name, spanDurs(spans, span))
	}
	for k, v := range jobLatencies(serve) {
		m[k] = v
	}
	pw, tw := median(perIter(plain, func(o *iterOut) float64 { return o.WallS })), median(perIter(traced, func(o *iterOut) float64 { return o.WallS }))
	m["trace_overhead_pct"] = measured{Value: 100 * (tw - pw) / pw, Unit: "%", N: len(plain) + len(traced), Kind: "host",
		Note: "median traced wall vs median untraced wall"}
	return m
}

// simCounts are the exact simulated statistics over a workload's results.
func simCounts(results []labeled) map[string]measured {
	var ops, bcast, dirOps, dirMsgs, threeHops float64
	var cgReq, cgAvoided, cgBcast, cgUnnec, rcaHit, nCG float64
	var l2, missCycles, misses float64
	for _, l := range results {
		r := l.Result
		ops += float64(l.Ops)
		bcast += float64(r.Broadcasts)
		l2 += r.L2MissRatio
		missCycles += r.AvgDemandMissLatency * float64(r.DemandMisses)
		misses += float64(r.DemandMisses)
		if r.Directory {
			dirOps += float64(l.Ops)
			dirMsgs += float64(r.DirMessages)
			threeHops += float64(r.ThreeHops)
		}
		if r.CGCT {
			nCG++
			cgReq += float64(r.Requests)
			cgAvoided += float64(r.Directs + r.Locals)
			cgBcast += float64(r.Broadcasts)
			cgUnnec += float64(r.Unnecessary)
			rcaHit += r.RCAHitRatio
		}
	}
	n := len(results)
	sim := func(v float64, unit string) measured { return measured{Value: v, Unit: unit, N: n, Kind: "simulated"} }
	m := map[string]measured{
		"bus.broadcasts_per_kop":          sim(1000*ratio(bcast, ops), "count"),
		"bus.avoided_frac":                sim(ratio(cgAvoided, cgReq), "ratio"),
		"oracle.unnecessary_frac":         sim(ratio(cgUnnec, cgBcast), "ratio"),
		"core.rca_hit_ratio":              sim(ratio(rcaHit, nCG), "ratio"),
		"cache.l2_miss_ratio":             sim(ratio(l2, float64(n)), "ratio"),
		"memctrl.avg_miss_latency_cycles": sim(ratio(missCycles, misses), "cycles"),
		"directory.messages_per_kop":      sim(1000*ratio(dirMsgs, dirOps), "count"),
		"directory.three_hops_per_kop":    sim(1000*ratio(threeHops, dirOps), "count"),
	}
	red := map[string]float64{}
	for _, row := range reductionRows(results) {
		red[row.Benchmark] = row.Reduction[512].Mean
	}
	for _, b := range cgct.PaperBenchmarks() {
		m["fig8."+b+".reduction_512_pct"] = sim(red[b], "%")
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanDurs returns the durations, in ms, of the spans with this name.
func spanDurs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimeTable sums self time per span name over traced iterations, ms.
func selfTimeTable(traced []*iterOut) map[string]float64 {
	out := map[string]float64{}
	for _, o := range traced {
		for k, v := range selfTimes(o.Spans) {
			out[k] += float64(v) / 1e6
		}
	}
	return out
}

// runVariants runs reqs through cgct.RunVariants, one call per benchmark,
// and returns the results in request order.
func runVariants(ctx context.Context, reqs []cgct.RunRequest) ([]labeled, error) {
	var out []labeled
	for i := 0; i < len(reqs); {
		j := i
		var opts []cgct.Options
		for ; j < len(reqs) && reqs[j].Benchmark == reqs[i].Benchmark; j++ {
			opts = append(opts, reqs[j].Options)
		}
		res, err := cgct.RunVariants(ctx, reqs[i].Benchmark, opts)
		if err != nil {
			return nil, err
		}
		for k, r := range res {
			n, err := traceOps(ctx, reqs[i].Benchmark, opts[k])
			if err != nil {
				return nil, err
			}
			out = append(out, labeled{Benchmark: reqs[i].Benchmark, Options: opts[k], Ops: n, Result: r})
		}
		i = j
	}
	return out, nil
}
