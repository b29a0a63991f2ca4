package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric and
// workload tables the command prints from in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, want)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, command %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestServeMixTracedRun runs a short traced serve-mix end to end and reads
// back the result line.
func TestServeMixTracedRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "serve-mix", "--seed", "3", "--seconds", "1", "--trace", "1"}, &out, &errOut, t.TempDir())
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if res.Metrics["service.hit.p50_ms"].Value <= 0 || res.Metrics["service.miss.p50_ms"].Value <= 0 {
		t.Errorf("service spans missing: hit %v miss %v", res.Metrics["service.hit.p50_ms"], res.Metrics["service.miss.p50_ms"])
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mix", "--seconds", "0"},
		{"--workload", "serve-mix", "--trace", "2"},
		{"--workload", "serve-mix", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, t.TempDir()); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
