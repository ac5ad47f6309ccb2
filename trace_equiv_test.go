package cgct

// Compiled-trace equivalence: replaying a workload through the columnar
// compiled-trace engine (internal/trace) must be invisible to the
// simulator — every stats.Run counter bit-identical to the live per-op
// generator path, for every registered benchmark. This is the contract
// that lets RunContext serve workloads from the shared trace cache by
// default without perturbing the golden fixtures.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cgct/internal/sim"
	"cgct/internal/stats"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

// runPath simulates one configuration with the given workload.
func runPath(t *testing.T, o Options, w workload.Workload, seed uint64) *stats.Run {
	t.Helper()
	cfg, _ := buildConfig(o)
	system, err := sim.New(cfg, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return system.Run()
}

func TestCompiledTraceEquivalence(t *testing.T) {
	const (
		procs = 4
		ops   = 2_500
		seed  = 13
	)
	p := workload.Params{Processors: procs, OpsPerProc: ops, Seed: seed}
	variants := []struct {
		name string
		opts Options
	}{
		{"snoop", Options{}},
		{"snoop+cgct", Options{CGCT: true}},
		{"directory", Options{Directory: true}},
		{"dir+cgct", Options{CGCT: true, Fabric: "directory"}},
		{"dir-limited", Options{Directory: true, DirScheme: "limited", DirPointers: 2, DirEntriesPerHome: 1024}},
	}
	for _, bench := range workload.Names() {
		for _, v := range variants {
			o := v.opts
			o.Processors, o.OpsPerProc, o.Seed = procs, ops, seed
			live := runPath(t, o, workload.MustBuild(bench, p), seed)
			tr, err := trace.Compile(context.Background(), bench, p)
			if err != nil {
				t.Fatal(err)
			}
			compiled := runPath(t, o, tr.Workload(), seed)
			if !reflect.DeepEqual(flatten(live), flatten(compiled)) {
				lf, cf := flatten(live), flatten(compiled)
				for k, lv := range lf {
					if cv := cf[k]; cv != lv {
						t.Errorf("%s %s: %s = %d compiled, %d live", bench, v.name, k, cv, lv)
					}
				}
				t.Fatalf("%s %s: compiled trace diverged from live generators", bench, v.name)
			}
		}
	}
}

// TestRunUsesCompiledPath: the public Run (which serves workloads from
// the shared trace cache) matches a hand-built live-generator simulation
// of the same golden configuration, and actually hits the trace cache on
// repeat.
func TestRunUsesCompiledPath(t *testing.T) {
	c := goldenCase{"tpcw-cgct", "tpc-w", Options{OpsPerProc: 30_000, Seed: 9, CGCT: true}}
	live := flatten(runStats(t, c))

	res, err := Run(c.Benchmark, c.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != live["Cycles"] || res.Instructions != live["Instructions"] {
		t.Fatalf("compiled-path Run: %d cycles / %d instrs, live path %d / %d",
			res.Cycles, res.Instructions, live["Cycles"], live["Instructions"])
	}

	hitsBefore := trace.SharedStats().Hits
	if _, err := Run(c.Benchmark, c.Opts); err != nil {
		t.Fatal(err)
	}
	if trace.SharedStats().Hits == hitsBefore {
		t.Fatal("second identical Run did not hit the shared trace cache")
	}
}

// fabricVariants is the 5-fabric sweep axis the equivalence suite pins:
// snoop, snoop+CGCT, full-map directory, directory+CGCT, limited-pointer
// directory.
func fabricVariants() []Options {
	return []Options{
		{},
		{CGCT: true},
		{Directory: true},
		{CGCT: true, Fabric: "directory"},
		{Directory: true, DirScheme: "limited", DirPointers: 2, DirEntriesPerHome: 1024},
	}
}

// TestRunVariantsBitIdentical: a RunVariants sweep — all 5 fabric
// variants on the worker pool — must return exactly what sequential Run
// calls return, result for result.
func TestRunVariantsBitIdentical(t *testing.T) {
	const bench = "tpc-w"
	opts := fabricVariants()
	for i := range opts {
		opts[i].OpsPerProc, opts[i].Seed = 6_000, 13
	}
	want := make([]*Result, len(opts))
	for i, o := range opts {
		r, err := Run(bench, o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := RunVariants(context.Background(), bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range opts {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("variant %d diverged on the pool:\npool       %+v\nsequential %+v", i, got[i], want[i])
		}
	}
}

// TestRunVariantsSchedulingInvariance: results are a function of the
// requests alone — any pool size must reproduce a per-request Run
// exactly, over a request list that mixes snoop and directory runs of
// different lengths (the property that makes the scheduler free to
// choose its order).
func TestRunVariantsSchedulingInvariance(t *testing.T) {
	var reqs []RunRequest
	for i, bench := range []string{"ocean", "barnes"} {
		for _, o := range []Options{
			{},
			{CGCT: true, RegionBytes: 256},
			{CGCT: true, RegionBytes: 1024},
			{Directory: true},
			{CGCT: true, Fabric: "directory"},
		} {
			o.OpsPerProc, o.Seed = 2_000+1_000*i, 5
			reqs = append(reqs, RunRequest{Benchmark: bench, Options: o})
		}
	}
	ref := make([]*Result, len(reqs))
	for i, rq := range reqs {
		r, err := Run(rq.Benchmark, rq.Options)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = r
	}
	for _, par := range []int{1, 2, 4, 8} {
		sched := Sched{Parallelism: par}
		got, err := RunAll(context.Background(), reqs, sched)
		if err != nil {
			t.Fatalf("sched %+v: %v", sched, err)
		}
		for i := range reqs {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("sched %+v: request %d (%s %+v) diverged from a per-request Run",
					sched, i, reqs[i].Benchmark, reqs[i].Options)
			}
		}
	}
}

// TestRunAllCancelled: a cancelled context aborts the sweep with
// ctx.Err() and no results.
func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []RunRequest{{Benchmark: "ocean", Options: Options{Processors: 2, OpsPerProc: 5_000, Seed: 1}}}
	res, err := RunAll(ctx, reqs, Sched{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned results")
	}
}

// TestRunAllProgress: every pooled run feeds the caller's Progress
// counter, and the process-wide runs-in-flight gauge drains afterwards.
func TestRunAllProgress(t *testing.T) {
	var p Progress
	ctx := WithProgress(context.Background(), &p)
	var reqs []RunRequest
	for seed := uint64(1); seed <= 3; seed++ {
		reqs = append(reqs, RunRequest{Benchmark: "ocean", Options: Options{Processors: 2, OpsPerProc: 3_000, Seed: seed}})
	}
	if _, err := RunAll(ctx, reqs, Sched{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if p.Events() == 0 {
		t.Fatal("the pool did not advance the progress counter")
	}
	if n := sim.RunsInflight(); n != 0 {
		t.Fatalf("runs-inflight gauge did not drain: %d", n)
	}
}

// TestRunFallsBackWhenTooLarge: a workload beyond the shared cache's op
// budget must still run (live generation), not fail.
func TestRunFallsBackWhenTooLarge(t *testing.T) {
	// 1024 procs × 64K ops > MaxSharedOps: buildWorkload must fall back.
	w, err := buildWorkload(context.Background(), "ocean", Options{Processors: 1024, OpsPerProc: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 0 || len(w.Generators) != 1024 {
		t.Fatalf("fallback workload: %d sources, %d generators", len(w.Sources), len(w.Generators))
	}
}
