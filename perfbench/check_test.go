package main

import (
	"context"
	"strings"
	"testing"

	"cgct"
	"cgct/internal/experiments"
)

func smallRun(t *testing.T, b string, o cgct.Options) labeled {
	t.Helper()
	o.OpsPerProc, o.Seed = 2000, 7
	r, err := cgct.Run(b, o)
	if err != nil {
		t.Fatal(err)
	}
	return labeled{Benchmark: b, Options: o, Result: r}
}

func TestGateTripsOnTamperedResult(t *testing.T) {
	base := smallRun(t, "ocean", cgct.Options{})
	cg := smallRun(t, "ocean", cgct.Options{CGCT: true})
	dir := smallRun(t, "ocean", cgct.Options{Fabric: "directory"})
	for _, l := range []labeled{base, cg, dir} {
		if err := checkResult(l); err != nil {
			t.Fatalf("untampered result rejected: %v", err)
		}
	}
	want, err := digest([]labeled{base, cg, dir})
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(l labeled, f func(*cgct.Result)) labeled {
		r := *l.Result
		f(&r)
		l.Result = &r
		return l
	}
	for name, bad := range map[string]labeled{
		"lost request":          tamper(cg, func(r *cgct.Result) { r.Requests++ }),
		"baseline went direct":  tamper(base, func(r *cgct.Result) { r.Directs++; r.Broadcasts-- }),
		"directory broadcasted": tamper(dir, func(r *cgct.Result) { r.Broadcasts++; r.Requests++ }),
	} {
		if err := checkResult(bad); err == nil {
			t.Errorf("%s: gate passed a tampered result", name)
		}
	}

	cycles := tamper(cg, func(r *cgct.Result) { r.Cycles++ })
	if err := checkResult(cycles); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	if got, _ := digest([]labeled{base, cycles, dir}); got == want {
		t.Error("digest did not change when a simulated statistic did")
	}
	if err := sameResult("tampered", cycles.Result, cg.Result); err == nil {
		t.Error("sameResult missed a changed cycle count")
	}
	var g gate
	g.check(sameResult("tampered", cycles.Result, cg.Result))
	if g.err() == nil || !strings.Contains(g.err().Error(), "tampered") {
		t.Errorf("gate error %v", g.err())
	}

}

func TestCanonicalDropsZerosOnly(t *testing.T) {
	got, err := canonical([]byte(`{"B":0,"A":1.50,"C":null,"D":{"E":0.0,"F":[],"G":2},"H":false,"I":"","J":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"A":1.50,"D":{"G":2},"J":[0]}`; string(got) != want {
		t.Errorf("canonical = %s, want %s", got, want)
	}
}

// The fig8-sweep gate recomputes Figure 8 from cgct.RunVariants results;
// that must reproduce experiments.Figure8 exactly, and a tampered result
// must break the match.
func TestReductionRowsReproduceFigure8(t *testing.T) {
	const ops, seed = 2000, 5
	p := experiments.Params{OpsPerProc: ops, Seeds: []uint64{seed}, Benchmarks: []string{"ocean", "tpc-b"}}
	got := experiments.Figure8(p)
	var reqs []cgct.RunRequest
	for _, rq := range fig8Requests(seed) {
		if rq.Benchmark == "ocean" || rq.Benchmark == "tpc-b" {
			rq.Options.OpsPerProc = ops
			reqs = append(reqs, rq)
		}
	}
	results, err := runVariants(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(got, reductionRows(results)); err != nil {
		t.Fatalf("Figure8 and the gate's recomputation disagree: %v", err)
	}
	r := *results[2].Result
	r.Cycles += 1000
	results[2].Result = &r
	if err := sameRows(got, reductionRows(results)); err == nil {
		t.Error("a tampered CGCT result still matched Figure 8")
	}
}
