// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks that every result it produced is correct, and
// prints the workload's metrics. See README.md for the workloads, the
// metrics and how to run it.
//
//	perfbench --workload fig8-sweep --seed 1 --seconds 20 --trace 0
//
// Each timed iteration runs in a fresh child process, so the trace cache,
// the result caches, the stores and the modelled caches all start empty.
// The last line of standard output is the JSON result; a failed
// correctness check exits non-zero without one.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cgct"
)

func main() {
	var (
		wl       = flag.String("workload", "", "workload to run: fig8-sweep, dir16-oltp or serve-fleet")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long to measure, in seconds (1..60)")
		traceArg = flag.Int("trace", 0, "0: report end-to-end metrics; 1: a traced run reporting per-layer metrics")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for reports, spans and scratch stores")
		commit   = flag.String("commit", "unknown", "commit of the code under test, for the provenance record")
		child    = flag.Bool("child", false, "run one iteration and print it as JSON (used by the benchmark itself)")
		traced   = flag.Bool("traced", false, "with -child: record spans")
		probe    = flag.Bool("probe", false, "with -child: also run the layer probes")
		setup    = flag.Bool("setup-only", false, "with -child: stop at the ready mark")
		work     = flag.String("work", "", "with -child: scratch directory")
	)
	flag.Parse()
	sp, err := specByName(*wl)
	if err == nil && (*seconds < 1 || *seconds > 60) {
		err = fmt.Errorf("--seconds %d outside 1..60", *seconds)
	}
	if err == nil && *traceArg != 0 && *traceArg != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *traceArg)
	}
	if err == nil {
		if *child {
			err = runChild(sp, *seed, *work, *traced, *probe, *setup)
		} else {
			err = runParent(sp, *seed, *seconds, *traceArg == 1, *outDir, *commit)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childTimeout bounds one iteration; the whole run must end within three
// minutes.
const childTimeout = 120 * time.Second

// runChild runs one iteration and prints it as a JSON line.
func runChild(sp *spec, seed uint64, work string, traced, probe, setupOnly bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	env := &iterEnv{seed: seed, work: work, probe: probe, setupOnly: setupOnly, reqs: sp.requests(seed)}
	if traced {
		env.rec = newRecorder()
	}
	out := &iterOut{}
	if err := sp.iterate(ctx, env, out); err != nil && !errors.Is(err, errSetupDone) {
		return err
	}
	out.Spans = env.rec.snapshot()
	return json.NewEncoder(os.Stdout).Encode(out)
}

// iteration spawns one child, passing it flags, and reads its report.
// Set-up time runs from the spawn to the child's ready mark, so it covers
// process start and package initialisation as well as the workload's own
// set-up.
func iteration(ctx context.Context, sp *spec, seed uint64, work string, flags ...string) (*iterOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-child", "-workload", sp.name, "-seed", strconv.FormatUint(seed, 10), "-work", work}, flags...)
	ctx, cancel := context.WithTimeout(ctx, childTimeout+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	spawn := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("iteration of %s: %w", sp.name, err)
	}
	var out iterOut
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &out); err != nil {
		return nil, fmt.Errorf("iteration of %s: reading its report: %w", sp.name, err)
	}
	out.SetupS = time.Unix(0, out.ReadyUnixNano).Sub(spawn).Seconds()
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	return &out, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// minIterations keeps a median meaningful however slow the host; a traced
// run needs that many of each kind.
const minIterations = 3

// setupsPerIteration is how many set-up-only children follow each timed
// iteration. Set-up takes milliseconds, so setup_s is the median of many
// of them, spread over the whole run.
const setupsPerIteration = 3

// runParent measures for the given time, runs the correctness gate and
// prints the report. In a traced run, traced and untraced iterations
// alternate so that their wall times give the tracing overhead.
func runParent(sp *spec, seed uint64, seconds int, traced bool, outDir, commit string) error {
	ctx := context.Background()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prov := provenance(sp, seed, commit)
	var plain, withSpans []*iterOut
	var setups []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; ; i++ {
		enough := len(plain) >= minIterations && (!traced || len(withSpans) >= minIterations)
		if enough && time.Now().After(deadline) {
			break
		}
		isTraced := traced && i%2 == 1
		work := filepath.Join(outDir, fmt.Sprintf("work-%d-%d", os.Getpid(), i))
		var flags []string
		if isTraced {
			flags = append(flags, "-traced")
			if len(withSpans) == 0 {
				flags = append(flags, "-probe")
			}
		}
		out, err := iteration(ctx, sp, seed, work, flags...)
		if err != nil {
			return err
		}
		if isTraced {
			withSpans = append(withSpans, out)
			continue
		}
		plain = append(plain, out)
		setups = append(setups, out.SetupS)
		for range setupsPerIteration {
			out, err := iteration(ctx, sp, seed, work+"-setup", "-setup-only")
			if err != nil {
				return err
			}
			setups = append(setups, out.SetupS)
		}
	}
	all := append(append([]*iterOut(nil), plain...), withSpans...)

	var g gate
	results := verify(ctx, sp, seed, all, &g)
	dig, err := digest(results)
	g.check(err)
	for _, l := range results {
		g.check(checkResult(l))
	}
	if err := g.err(); err != nil {
		return fmt.Errorf("correctness gate failed; no metrics reported:\n%w", err)
	}

	rep := &report{Provenance: prov, Digest: dig, Iterations: len(plain), TracedIterations: len(withSpans)}
	for _, o := range all {
		rep.Attempted += o.Attempted
		rep.Failed += o.Failed
	}
	rep.EndToEnd = endToEndValues(plain, setups)
	rep.Extra = workloadValues(sp, plain, results)
	if traced {
		rep.PerLayer = perLayerValues(plain, withSpans, results)
		var spans []iterSpans
		for i, o := range withSpans {
			spans = append(spans, iterSpans{Iteration: i, Spans: o.Spans})
		}
		rep.SpansFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", sp.name, seed))
		if err := writeJSON(rep.SpansFile, spans); err != nil {
			return err
		}
		rep.SelfTimes = selfTimeTable(withSpans)
	}
	rep.print(os.Stdout, sp, seed, traced)
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", sp.name, seed, btoi(traced))), rep); err != nil {
		return err
	}
	return rep.printResult(os.Stdout, traced)
}

// verify is the correctness gate's workload half: it returns the results
// the run's digest and simulated counts cover, checking on the way that
// every iteration produced the same ones and that a sampled result equals
// a plain cgct.Run of the same request.
func verify(ctx context.Context, sp *spec, seed uint64, outs []*iterOut, g *gate) []labeled {
	reqs := sp.requests(seed)
	sample := reqs[int(seed%uint64(len(reqs)))]
	direct, err := cgct.Run(sample.Benchmark, sample.Options)
	if err != nil {
		g.check(fmt.Errorf("direct run of the sampled request: %w", err))
		return nil
	}
	for i, o := range outs {
		if o.Failed > 0 {
			g.check(fmt.Errorf("iteration %d: %d of %d operations failed", i, o.Failed, o.Attempted))
		}
		if o.Serve != nil {
			_, err := accountLoop(o.Serve.Jobs)
			g.check(err)
		}
	}
	var results []labeled
	switch sp.name {
	case "fig8-sweep":
		results, err = runVariants(ctx, reqs)
		if err != nil {
			g.check(fmt.Errorf("RunVariants over Figure 8's requests: %w", err))
			return nil
		}
		rows := reductionRows(results)
		for i, o := range outs {
			if err := sameRows(o.Rows, rows); err != nil {
				g.check(fmt.Errorf("iteration %d: experiments.Figure8 disagrees with cgct.RunVariants: %w", i, err))
			}
		}
	default:
		results = outs[0].Results
		want, err := digest(results)
		g.check(err)
		for i, o := range outs[1:] {
			if got, err := digest(o.Results); err != nil || got != want {
				g.check(fmt.Errorf("iteration %d produced other results than iteration 0 (%v)", i+1, err))
			}
		}
	}
	if len(results) != len(reqs) {
		g.check(fmt.Errorf("%d results for %d requests", len(results), len(reqs)))
		return results
	}
	found := false
	for _, l := range results {
		if label(l.Benchmark, l.Options) == label(sample.Benchmark, sample.Options) {
			found = true
			g.check(sameResult("sampled result vs plain cgct.Run", l.Result, direct))
		}
	}
	if !found {
		g.check(fmt.Errorf("no result for the sampled request %s", label(sample.Benchmark, sample.Options)))
	}
	if sp.name == "serve-fleet" {
		for i, o := range outs {
			want, err := json.Marshal(direct)
			g.check(err)
			if !bytes.Equal(o.Sample, want) {
				g.check(fmt.Errorf("iteration %d: served payload of %s differs from a plain cgct.Run", i, label(sample.Benchmark, sample.Options)))
			}
		}
	}
	return results
}

// report is everything one run measured, as written to its report file.
type report struct {
	Provenance       map[string]string   `json:"provenance"`
	Digest           string              `json:"digest"`
	Iterations       int                 `json:"iterations"`
	TracedIterations int                 `json:"traced_iterations"`
	Attempted        int                 `json:"attempted"`
	Failed           int                 `json:"failed"`
	EndToEnd         map[string]measured `json:"end_to_end"`
	Extra            map[string]measured `json:"workload"`
	PerLayer         map[string]measured `json:"per_layer,omitempty"`
	SelfTimes        map[string]float64  `json:"self_time_ms,omitempty"`
	SpansFile        string              `json:"spans_file,omitempty"`
}

// measured is one metric's value with the samples behind it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Kind  string  `json:"kind"` // host or simulated
	Note  string  `json:"note,omitempty"`
}

type iterSpans struct {
	Iteration int    `json:"iteration"`
	Spans     []span `json:"spans"`
}

func (r *report) print(w io.Writer, sp *spec, seed uint64, traced bool) {
	keys := make([]string, 0, len(r.Provenance))
	for k := range r.Provenance {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d: %d iterations", sp.name, seed, btoi(traced), r.Iterations)
	if traced {
		fmt.Fprintf(w, " + %d traced", r.TracedIterations)
	}
	fmt.Fprintln(w)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-16s %s\n", k, r.Provenance[k])
	}
	fmt.Fprintf(w, "  %-16s sha256:%s\n", "simulated_digest", r.Digest)
	fmt.Fprintf(w, "  %-16s %d attempted, %d failed; every result checked\n", "correctness", r.Attempted, r.Failed)
	table := func(title string, m map[string]measured, names []string) {
		fmt.Fprintf(w, "%s\n", title)
		for _, n := range names {
			v, ok := m[n]
			if !ok {
				continue
			}
			spread := ""
			if v.Q1 != 0 || v.Q3 != 0 {
				spread = fmt.Sprintf("q1=%.5g q3=%.5g", v.Q1, v.Q3)
			}
			fmt.Fprintf(w, "  %-38s %14.6g %-6s %-9s n=%-8d %-28s %s\n",
				n, v.Value, v.Unit, v.Kind, v.N, spread, v.Note)
		}
	}
	table("end-to-end (bounded):", r.EndToEnd, metricNames(endToEnd))
	table("end-to-end (this workload):", r.Extra, sortedNames(r.Extra))
	if traced {
		table("per-layer:", r.PerLayer, metricNames(perLayer()))
		fmt.Fprintf(w, "self time by span, ms (spans in %s):\n", r.SpansFile)
		for _, n := range sortedNames(r.SelfTimes) {
			fmt.Fprintf(w, "  %-38s %12.3f\n", n, r.SelfTimes[n])
		}
	}
}

// printResult prints the final JSON line: the end-to-end metrics, or in a
// traced run the per-layer ones.
func (r *report) printResult(w io.Writer, traced bool) error {
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer(), r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = value{Value: v.Value, Unit: d.Unit}
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.Attempted, r.Failed, ms})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// provenance records where and on what the numbers were taken.
func provenance(sp *spec, seed uint64, commit string) map[string]string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return map[string]string{
		"host":          host,
		"num_cpu":       strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"seed":          strconv.FormatUint(seed, 10),
		"ops_per_proc":  strconv.Itoa(sp.ops),
		"caches":        "cold: every iteration is a fresh process; modelled caches start empty",
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// report names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
