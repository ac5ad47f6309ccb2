package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json this test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	var workloads []string
	for _, w := range bf.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(workloads), len(specs))
	}

	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		name(m.Name)
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\ncommand prints:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\ncommand prints:\n%v", bf.PerLayer, perLayer())
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

// printResult prints exactly the listed metrics and fails on a missing one.
func TestPrintResultPrintsEveryListedMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer()
		}
		vals := map[string]measured{}
		for _, d := range defs {
			vals[d.Name] = measured{Value: 1.5}
		}
		r := &report{EndToEnd: vals, PerLayer: vals, Attempted: 3}
		var buf bytes.Buffer
		if err := r.printResult(&buf, traced); err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted != 3 || len(out.Metrics) != len(defs) {
			t.Errorf("traced=%t: printed %d metrics, want %d", traced, len(out.Metrics), len(defs))
		}
		delete(vals, defs[0].Name)
		if err := r.printResult(&buf, traced); err == nil {
			t.Errorf("traced=%t: a missing metric went unreported", traced)
		}
	}
}
