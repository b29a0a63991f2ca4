// Command perfbench is the repository benchmark: one command that runs a
// named workload for a fixed time, prints every end-to-end metric (or, with
// -trace 1, every per-layer metric from a traced run) by name with its
// unit, and checks that every output the program produced is correct. The
// last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Usage (from the checkout root):
//
//	bash perfbench/run.sh --workload fig8-sweep --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced runs; every workload reports all.
// The times and the rate are read on the reference clock (refclock.go):
// ref_s and ref_ms are the wall seconds and milliseconds of a host running
// the reference kernel at a fixed speed. setup_s is read on it too, in
// reference seconds under the unit label s that the set-up metric keeps.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gates_per_s", "gates/ref_s"},
	{"latency.p50_ms", "ref_ms"},
	{"latency.tail_ms", "ref_ms"},
	{"peak_heap_mb", "MB"},
	{"out.makespan_kcycles", "kcycles"},
	{"out.speedup", "ratio"},
	{"out.swaps_per_kgate", "swaps/kgate"},
	{"ops.ok_frac", "ratio"},
}

// perLayer metrics come from the traced run; every workload reports all,
// with 0 for a layer the workload does not run.
var perLayer = []metricDef{
	{"qasm.parse.ns_per_gate", "ns/gate"},
	{"qasm.parse.allocs_per_gate", "allocs/gate"},
	{"qasm.parse.share", "ratio"},
	{"circuit.decompose.ns_per_gate", "ns/gate"},
	{"circuit.assemble.ns_per_gate", "ns/gate"},
	{"sabre.place.ns_per_gate", "ns/gate"},
	{"sabre.place.allocs_per_gate", "allocs/gate"},
	{"sabre.place.share", "ratio"},
	{"core.route.ns_per_gate", "ns/gate"},
	{"core.route.allocs_per_gate", "allocs/gate"},
	{"core.route.share", "ratio"},
	{"core.route.swaps", "count"},
	{"core.route.cycles", "count"},
	{"sabre.route.ns_per_gate", "ns/gate"},
	{"sabre.route.allocs_per_gate", "allocs/gate"},
	{"sabre.route.share", "ratio"},
	{"sabre.route.swaps", "count"},
	{"schedule.weighted_depth.ns_per_gate", "ns/gate"},
	{"qasm.write.ns_per_gate", "ns/gate"},
	{"qasm.write.bytes_per_gate", "bytes/gate"},
	{"qasm.write.share", "ratio"},
	{"service.hit.p50_ms", "ms"},
	{"service.miss.p50_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.collapsed", "count"},
	{"service.rejected", "count"},
	{"service.evictions", "count"},
	{"service.resp_kb_per_req", "KB"},
	{"stream.first_chunk_ms", "ms"},
	{"stream.chunks", "count"},
	{"runtime.alloc_mb_per_kgate", "MB/kgate"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_tail_ms", "ms"},
	{"trace.unaccounted_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     io.Writer // human-readable lines
	// traceDir receives a traced run's spans, one JSON object per line.
	traceDir string
}

// report is what a workload run returns: metric values by name plus the
// tally of attempted and failed operations and output checks.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check counts one output check; a false ok is a failure.
func (r *report) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// fail counts one attempted operation that failed.
func (r *report) fail(err error) { r.check(false, "%v", err) }

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg config) (*report, error)

var workloadTable = map[string]workloadFunc{
	"fig8-sweep":   runFig8,
	"stream-large": runStream,
	"serve-mix":    runServe,
}

// defaultTraceDir is under the build directory the run script uses.
var defaultTraceDir = filepath.Join(".bench_build", "trace")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultTraceDir)) }

func run(args []string, stdout, stderr io.Writer, traceDir string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadTable[*name]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: stdout, traceDir: traceDir}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if !cfg.trace {
		rep.metrics["ops.ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-38s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "ops: attempted=%d failed=%d failed_frac=%g\n", rep.attempted, rep.failed,
		float64(rep.failed)/float64(rep.attempted))
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func workloadNames() []string {
	var names []string
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tracePath is where a traced run writes its spans.
func (c config) tracePath(workload string) string {
	return filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.ndjson", workload, c.seed))
}
