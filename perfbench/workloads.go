package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"cgct"
	"cgct/internal/experiments"
	"cgct/internal/sim"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

// Workload inputs. The benchmark sets trace lengths, seeds, benchmarks,
// processor counts, the fabric and deployment settings; it leaves every
// execution-strategy choice to the library's defaults.
const (
	sweepOps   = 50_000 // fig8-sweep: trace length per processor
	dirOps     = 50_000 // dir16-oltp: trace length per processor
	dirProcs   = 16
	serveOps   = 5_000 // serve-fleet: short jobs, so per-job set-up weighs
	serveJobs  = 300   // jobs per serve-fleet iteration
	serveZipfS = 1.1   // popularity skew of the serve-fleet mix
)

// figure8Perturb is the request perturbation experiments.Figure8 applies
// to every run; the fig8-sweep gate re-runs Figure 8's requests with it.
const figure8Perturb = 40

// spec is one benchmark workload.
type spec struct {
	name string
	ops  int // trace length per processor
	// requests lists, in order, the distinct simulations the workload asks for.
	requests func(seed uint64) []cgct.RunRequest
	// iterate runs one timed iteration (in a fresh process).
	iterate func(ctx context.Context, env *iterEnv, out *iterOut) error
}

var specs = []*spec{
	{name: "fig8-sweep", ops: sweepOps, requests: fig8Requests, iterate: iterFig8},
	{name: "dir16-oltp", ops: dirOps, requests: dir16Requests, iterate: iterDir16},
	{name: "serve-fleet", ops: serveOps, requests: serveRequests, iterate: iterServe},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paperRequests are every paper benchmark as baseline and with CGCT at
// every region size, in experiments.Figure8's order.
func paperRequests(seed uint64, ops int, perturb uint64) []cgct.RunRequest {
	var reqs []cgct.RunRequest
	for _, b := range cgct.PaperBenchmarks() {
		o := cgct.Options{OpsPerProc: ops, Seed: seed, PerturbCycles: perturb}
		reqs = append(reqs, cgct.RunRequest{Benchmark: b, Options: o})
		for _, rb := range experiments.RegionSizes {
			o.CGCT, o.RegionBytes = true, rb
			reqs = append(reqs, cgct.RunRequest{Benchmark: b, Options: o})
		}
	}
	return reqs
}

// fig8Requests are the runs experiments.Figure8 makes for one seed.
func fig8Requests(seed uint64) []cgct.RunRequest {
	return paperRequests(seed, sweepOps, figure8Perturb)
}

// dir16Requests are two OLTP-style benchmarks on a 16-processor directory
// machine, baseline and CGCT at 512 B.
func dir16Requests(seed uint64) []cgct.RunRequest {
	var reqs []cgct.RunRequest
	for _, b := range []string{"tpc-b", "specjbb2000"} {
		o := cgct.Options{Processors: dirProcs, OpsPerProc: dirOps, Seed: seed, Fabric: "directory"}
		reqs = append(reqs, cgct.RunRequest{Benchmark: b, Options: o})
		o.CGCT, o.RegionBytes = true, 512
		reqs = append(reqs, cgct.RunRequest{Benchmark: b, Options: o})
	}
	return reqs
}

// serveRequests are the distinct jobs of the serve-fleet mix, on short
// traces and without Figure 8's perturbation.
func serveRequests(seed uint64) []cgct.RunRequest {
	return paperRequests(seed, serveOps, 0)
}

// serveSequence is the order jobs are submitted in: every distinct request
// once, plus Zipf-popular repeats, shuffled. Popularity ranks are a seeded
// permutation, so each seed makes different requests hot.
func serveSequence(seed uint64, distinct, jobs int) []int {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	rank := r.Perm(distinct)
	z := rand.NewZipf(r, serveZipfS, 1, uint64(distinct-1))
	seq := r.Perm(distinct)
	for len(seq) < jobs {
		seq = append(seq, rank[z.Uint64()])
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// iterEnv is what a child process knows about its iteration.
type iterEnv struct {
	seed  uint64
	work  string    // scratch directory inside the checkout
	rec   *recorder // nil unless this iteration is traced
	probe bool      // also run the layer probes after the timed section
	// setupOnly stops the iteration at its ready mark.
	setupOnly bool
	reqs      []cgct.RunRequest
}

// iterOut is what one iteration reports to the parent.
type iterOut struct {
	ReadyUnixNano int64   `json:"ready_unix_nano"`
	SetupS        float64 `json:"setup_s"` // filled in by the parent
	WallS         float64 `json:"wall_s"`
	CPUS          float64 `json:"cpu_s"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	SimOps        int64   `json:"sim_ops"`
	Units         int     `json:"units"` // simulations or jobs completed
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	TraceHitRatio float64 `json:"trace_hit_ratio"`

	Rows    []experiments.Figure8Row `json:"rows,omitempty"`
	Results []labeled                `json:"results,omitempty"`
	Sample  json.RawMessage          `json:"sample,omitempty"` // serve-fleet: one result payload, verbatim
	Serve   *serveOut                `json:"serve,omitempty"`
	Probe   *probeOut                `json:"probe,omitempty"`
	Spans   []span                   `json:"spans,omitempty"`
}

// errSetupDone ends a set-up-only iteration at its ready mark.
var errSetupDone = errors.New("set-up done")

// ready marks the end of set-up. In a set-up-only iteration it returns
// errSetupDone, which the iteration passes up unchanged.
func (e *iterEnv) ready(out *iterOut) error {
	out.ReadyUnixNano = time.Now().UnixNano()
	if e.setupOnly {
		return errSetupDone
	}
	return nil
}

// measure runs the timed section, recording its wall time, the process
// CPU time it used and the peak live-heap size sampled while it ran.
func (o *iterOut) measure(fn func() error) error {
	peak := sampleHeap()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	o.WallS = time.Since(t0).Seconds()
	o.CPUS = cpuSeconds() - cpu0
	o.PeakHeapMB = peak()
	st := trace.SharedStats()
	if t := st.Hits + st.Misses; t > 0 {
		o.TraceHitRatio = float64(st.Hits) / float64(t)
	}
	return err
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sampleHeap samples the bytes held by heap objects every millisecond
// until the returned function is called, which returns the peak in MB.
func sampleHeap() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				done <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// traceOps returns how many memory ops request o simulates: the length of
// its compiled trace, read from the shared trace cache.
func traceOps(ctx context.Context, benchmark string, o cgct.Options) (int64, error) {
	_, n := cgct.ResolveConfig(o)
	tr, err := trace.Get(ctx, trace.Key{Benchmark: benchmark, Processors: n.Processors, OpsPerProc: n.OpsPerProc, Seed: n.Seed})
	if err != nil {
		return 0, err
	}
	return tr.Ops(), nil
}

func iterFig8(ctx context.Context, env *iterEnv, out *iterOut) error {
	p := experiments.Params{OpsPerProc: sweepOps, Seeds: []uint64{env.seed}}
	out.Attempted = len(env.reqs)
	if err := env.ready(out); err != nil {
		return err
	}
	if err := out.measure(func() error {
		return env.rec.do("experiments.Figure8", "fig8", 0, func(int) error {
			out.Rows = experiments.Figure8(p)
			return nil
		})
	}); err != nil {
		return err
	}
	out.Units = len(env.reqs)
	for _, rq := range env.reqs {
		n, err := traceOps(ctx, rq.Benchmark, rq.Options)
		if err != nil {
			return err
		}
		out.SimOps += n
	}
	return sweepProbe(ctx, env, out)
}

func iterDir16(ctx context.Context, env *iterEnv, out *iterOut) error {
	byBench := map[string][]cgct.Options{}
	var order []string
	for _, rq := range env.reqs {
		if _, ok := byBench[rq.Benchmark]; !ok {
			order = append(order, rq.Benchmark)
		}
		byBench[rq.Benchmark] = append(byBench[rq.Benchmark], rq.Options)
	}
	res := make([][]*cgct.Result, len(order))
	errs := make([]error, len(order))
	out.Attempted = len(env.reqs)
	if err := env.ready(out); err != nil {
		return err
	}
	if err := out.measure(func() error {
		var wg sync.WaitGroup
		for i, b := range order {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = env.rec.do("cgct.RunVariants", b, 0, func(int) error {
					var err error
					res[i], err = cgct.RunVariants(ctx, b, byBench[b])
					return err
				})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i, b := range order {
		for j, o := range byBench[b] {
			n, err := traceOps(ctx, b, o)
			if err != nil {
				return err
			}
			out.Results = append(out.Results, labeled{Benchmark: b, Options: o, Ops: n, Result: res[i][j]})
			out.SimOps += n
			out.Units++
		}
	}
	return sweepProbe(ctx, env, out)
}

// sweepProbe runs a sweep workload's layer probe: the trace and sim
// entry points over all its requests. The serving layers are measured on
// serve-fleet only.
func sweepProbe(ctx context.Context, env *iterEnv, out *iterOut) error {
	if !env.probe {
		return nil
	}
	var err error
	out.Probe, err = layerProbe(ctx, env.rec, env.reqs)
	return err
}

func iterServe(ctx context.Context, env *iterEnv, out *iterOut) error {
	seq := serveSequence(env.seed, len(env.reqs), serveJobs)
	f, err := bootFleet(filepath.Join(env.work, "fleet"))
	if err != nil {
		return err
	}
	defer f.close()
	out.Attempted = len(seq)
	if err := env.ready(out); err != nil {
		return err
	}
	var so *serveOut
	if err := out.measure(func() error {
		var err error
		so, err = f.serve(ctx, env.rec, env.reqs, seq)
		return err
	}); err != nil {
		return err
	}
	out.Serve = so
	// Every request was asked for at least once, so each has a key, a
	// payload on the nodes that hold it and a trace in the shared cache.
	ops := make([]int64, len(env.reqs))
	sample := int(env.seed % uint64(len(env.reqs)))
	for idx, key := range so.Keys {
		rq := env.reqs[idx]
		if key == "" {
			return fmt.Errorf("no job asked for %s", label(rq.Benchmark, rq.Options))
		}
		payload, err := f.payload(ctx, key)
		if err != nil {
			return err
		}
		var res cgct.Result
		if err := json.Unmarshal(payload, &res); err != nil {
			return fmt.Errorf("decoding payload of %s: %w", label(rq.Benchmark, rq.Options), err)
		}
		if ops[idx], err = traceOps(ctx, rq.Benchmark, rq.Options); err != nil {
			return err
		}
		out.Results = append(out.Results, labeled{Benchmark: rq.Benchmark, Options: rq.Options, Ops: ops[idx], Result: &res})
		if idx == sample {
			out.Sample = payload
		}
	}
	// A job's memory ops count whichever tier answered it, so the figure
	// does not depend on which jobs happened to simulate.
	for i, r := range so.Jobs {
		if !r.OK {
			out.Failed++
			continue
		}
		out.Units++
		out.SimOps += ops[seq[i]]
	}
	if !env.probe {
		return nil
	}
	if err := f.probeLayers(ctx, env.rec, filepath.Join(env.work, "probe-store"), so.Keys); err != nil {
		return err
	}
	f.close()
	out.Probe, err = layerProbe(ctx, env.rec, env.reqs)
	return err
}

// probeOut counts the work the layer probe timed; the times themselves
// are its spans.
type probeOut struct {
	TraceOps int64     `json:"trace_ops"` // ops compiled and decoded
	Runs     int       `json:"runs"`
	RunOps   int64     `json:"run_ops"` // ops simulated
	Events   uint64    `json:"events"`
	AllocMB  []float64 `json:"alloc_mb"` // heap allocated per run, sim.New through RunContext
}

// layerProbe calls the trace and sim entry points directly for each of
// reqs, one at a time: trace.Compile and a full Cursor.Fill pass once per
// distinct trace, then sim.New and System.RunContext once per request.
func layerProbe(ctx context.Context, rec *recorder, reqs []cgct.RunRequest) (*probeOut, error) {
	p := &probeOut{}
	traces := map[trace.Key]*trace.Trace{}
	for _, rq := range reqs {
		cfg, o := cgct.ResolveConfig(rq.Options)
		req := label(rq.Benchmark, rq.Options)
		k := trace.Key{Benchmark: rq.Benchmark, Processors: o.Processors, OpsPerProc: o.OpsPerProc, Seed: o.Seed}
		tr := traces[k]
		if tr == nil {
			if err := rec.do("trace.Compile", req, 0, func(int) error {
				var err error
				tr, err = trace.Compile(ctx, rq.Benchmark, workload.Params{Processors: o.Processors, OpsPerProc: o.OpsPerProc, Seed: o.Seed})
				return err
			}); err != nil {
				return nil, err
			}
			traces[k] = tr
			p.TraceOps += tr.Ops()
			_ = rec.do("trace.Cursor.Fill", req, 0, func(int) error {
				buf := make([]workload.Op, 4096)
				for i := range tr.Procs {
					c := tr.Procs[i].Cursor()
					for c.Fill(buf) > 0 {
					}
				}
				return nil
			})
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w := tr.Workload()
		var s *sim.System
		if err := rec.do("sim.New", req, 0, func(int) error {
			var err error
			s, err = sim.New(cfg, w, o.Seed)
			return err
		}); err != nil {
			return nil, err
		}
		ev0 := sim.EventsTotal()
		if err := rec.do("sim.System.RunContext", req, 0, func(int) error {
			_, err := s.RunContext(ctx)
			return err
		}); err != nil {
			return nil, err
		}
		p.Events += sim.EventsTotal() - ev0
		runtime.ReadMemStats(&m1)
		p.AllocMB = append(p.AllocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		p.Runs++
		p.RunOps += tr.Ops()
	}
	return p, nil
}
