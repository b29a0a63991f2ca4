package main

import (
	"fmt"
	"math"
	"time"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/experiments"
	"codar/internal/metrics"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/verify"
)

// fig8Pins are the four average speedups the Fig 8 sweep must reproduce,
// in arch.EvaluationDevices order.
var fig8Pins = []float64{1.133, 1.184, 1.114, 1.185}

// fig8Pair is one (circuit, device) point of the sweep, with the circuit
// already built and lowered in memory.
type fig8Pair struct {
	dev    *arch.Device
	devIdx int
	name   string
	c      *circuit.Circuit
}

// fig8Out is what one pair produced.
type fig8Out struct {
	codarWD, sabreWD, codarSwaps, sabreSwaps, codarCycles int
}

// fig8Setup builds every eligible (circuit, device) pair of the Fig 8
// suite: the devices with their distance tables and each suite circuit,
// built and lowered once and shared by the devices it runs on.
func fig8Setup() ([]fig8Pair, error) {
	built := map[string]*circuit.Circuit{}
	var pairs []fig8Pair
	for di, dev := range arch.EvaluationDevices() {
		for _, b := range experiments.EligibleSuite(dev) {
			c, ok := built[b.Name]
			if !ok {
				c = b.Circuit()
				built[b.Name] = c
			}
			pairs = append(pairs, fig8Pair{dev: dev, devIdx: di, name: b.Name, c: c})
		}
	}
	if len(pairs) != 275 {
		return nil, fmt.Errorf("fig8 suite has %d eligible pairs, want 275", len(pairs))
	}
	return pairs, nil
}

// mapPair runs the paper's per-pair pipeline: assemble, SABRE
// reverse-traversal placement, both routers from that placement, and the
// weighted depth of both outputs. keep, when non-nil, receives the mapped
// circuits and the initial layout for verification.
func mapPair(p fig8Pair, l *lane, op int64, keep func(codar, sabreOut *circuit.Circuit, initial *arch.Layout)) (fig8Out, error) {
	gates := int64(p.c.Len())
	root := l.begin("bench.pair", op)
	defer l.end(root, gates)

	s := l.begin("circuit.assemble", op)
	asm := circuit.Assemble(p.c)
	l.end(s, gates)

	s = l.begin("sabre.place", op)
	initial, err := sabre.InitialLayoutAssembled(asm, p.dev, experiments.Seed, sabre.Options{})
	l.end(s, gates)
	if err != nil {
		return fig8Out{}, fmt.Errorf("%s on %s: place: %w", p.name, p.dev.Name, err)
	}

	s = l.begin("sabre.route", op)
	sres, err := sabre.RemapAssembled(asm, p.dev, initial, sabre.Options{})
	l.end(s, gates)
	if err != nil {
		return fig8Out{}, fmt.Errorf("%s on %s: sabre: %w", p.name, p.dev.Name, err)
	}

	s = l.begin("core.route", op)
	cres, err := core.RemapAssembled(asm, p.dev, initial, core.Options{})
	l.end(s, gates)
	if err != nil {
		return fig8Out{}, fmt.Errorf("%s on %s: codar: %w", p.name, p.dev.Name, err)
	}

	s = l.begin("schedule.weighted_depth", op)
	sWD := schedule.WeightedDepth(sres.Circuit, p.dev.Durations)
	l.end(s, int64(sres.Circuit.Len()))
	s = l.begin("schedule.weighted_depth", op)
	cWD := schedule.WeightedDepth(cres.Circuit, p.dev.Durations)
	l.end(s, int64(cres.Circuit.Len()))

	if keep != nil {
		keep(cres.Circuit, sres.Circuit, initial)
	}
	return fig8Out{codarWD: cWD, sabreWD: sWD, codarSwaps: cres.SwapCount,
		sabreSwaps: sres.SwapCount, codarCycles: cres.Cycles}, nil
}

// fig8Pass is what one sweep over all pairs produced.
type fig8Pass struct {
	lat    []float64 // per-pair wall ms
	probes []float64 // reference probes (ns), one before each pair when probing
	outs   []fig8Out
	errs   []error
}

// runFig8Pass maps every pair once. With probe set, a reference probe runs
// before each pair, outside the pair's timing.
func runFig8Pass(pairs []fig8Pair, l *lane, passIdx int, heap *heapPeak, probe bool) fig8Pass {
	ps := fig8Pass{
		lat:  make([]float64, 0, len(pairs)),
		outs: make([]fig8Out, len(pairs)),
		errs: make([]error, len(pairs)),
	}
	for i, p := range pairs {
		if probe {
			ps.probes = append(ps.probes, refProbe())
		}
		t0 := time.Now()
		out, err := mapPair(p, l, int64(passIdx*len(pairs)+i), nil)
		ps.lat = append(ps.lat, float64(time.Since(t0))/1e6)
		if err != nil {
			ps.errs[i] = err
			continue
		}
		ps.outs[i] = out
		heap.sample()
	}
	heap.cut()
	return ps
}

// runFig8 is the fig8-sweep workload: the paper's own experiment, every
// eligible pair of the 71-circuit suite on the four devices, run serially
// from in-memory circuits. Placement and routing do nearly all the work;
// the QASM front end does none.
func runFig8(cfg config) (*report, error) {
	rep := newReport()
	setupS, pairs, err := timedSetup(fig8Setup)
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	heap := newHeapPeak()
	passes := runPasses(cfg, tr, func(i int, l *lane) fig8Pass {
		return runFig8Pass(pairs, l, i, heap, !cfg.trace)
	})
	var gates int64
	for _, p := range pairs {
		gates += int64(p.c.Len())
	}

	// Every pass must reproduce the first pass exactly.
	ref := passes[0].out
	for pi, tp := range passes {
		ps := tp.out
		for i, p := range pairs {
			if ps.errs[i] != nil {
				rep.fail(ps.errs[i])
				continue
			}
			rep.check(ps.outs[i] == ref.outs[i], "pass %d: %s on %s changed output", pi, p.name, p.dev.Name)
		}
	}
	fig8Checks(rep, pairs, ref.outs)
	if rep.failed > 0 {
		return rep, nil
	}

	if cfg.trace {
		var codarSwaps, sabreSwaps, cycles int
		for _, o := range ref.outs {
			codarSwaps += o.codarSwaps
			sabreSwaps += o.sabreSwaps
			cycles += o.codarCycles
		}
		m := rep.metrics
		m["core.route.swaps"] = float64(codarSwaps)
		m["core.route.cycles"] = float64(cycles)
		m["sabre.route.swaps"] = float64(sabreSwaps)
		return rep, passLedger(cfg, "fig8-sweep", m, tr, passes, gates)
	}

	// Each pass is one latency window: its 275 pairs, on the reference
	// clock of the probes run between them.
	var rates, scales []float64
	var lat [][]float64
	for _, ps := range passes {
		scale := refScale(ps.out.probes)
		scales = append(scales, scale)
		var work float64
		for _, ms := range ps.out.lat {
			work += ms
		}
		rates = append(rates, refRate(float64(gates), work, scale))
		lat = append(lat, refMS(ps.out.lat, scale))
	}
	rep.metrics["gates_per_s"] = median(rates)
	t := setLatency(rep.metrics, lat)
	rep.metrics["peak_heap_mb"] = heap.mb()

	var wdSum, swaps int64
	speedups := make([]float64, 0, len(pairs))
	for _, o := range ref.outs {
		wdSum += int64(o.codarWD)
		swaps += int64(o.codarSwaps)
		speedups = append(speedups, float64(o.sabreWD)/float64(o.codarWD))
	}
	rep.metrics["out.makespan_kcycles"] = float64(wdSum) / 1000
	rep.metrics["out.speedup"] = metrics.Mean(speedups)
	rep.metrics["out.swaps_per_kgate"] = float64(swaps) / (float64(gates) / 1000)
	rep.note("fig8-sweep: %d passes of %d pairs, latency tail %s; %s", len(passes), len(pairs), t, refNote(scales))

	return rep, nil
}

// fig8Checks runs the output checks outside the timed region: the four
// average-speedup pins, and one more sweep that verifies every mapped
// circuit for coupling compliance and logical equivalence and confirms it
// is the circuit the timed passes measured.
func fig8Checks(rep *report, pairs []fig8Pair, outs []fig8Out) {
	perDev := make([][]float64, len(fig8Pins))
	for i, p := range pairs {
		o := outs[i]
		if o.codarWD > 0 {
			perDev[p.devIdx] = append(perDev[p.devIdx], float64(o.sabreWD)/float64(o.codarWD))
		}
	}
	for d, pin := range fig8Pins {
		got := math.Round(metrics.Mean(perDev[d])*1000) / 1000
		rep.check(got == pin, "fig8 pin %d: average speedup %.3f, want %.3f", d, got, pin)
	}
	for i, p := range pairs {
		out, err := mapPair(p, nil, 0, func(codar, sabreOut *circuit.Circuit, initial *arch.Layout) {
			for _, m := range []*circuit.Circuit{codar, sabreOut} {
				err := verify.Compliance(m, p.dev)
				if err == nil {
					err = verify.Equivalence(p.c, m, initial)
				}
				rep.check(err == nil, "%s on %s: %v", p.name, p.dev.Name, err)
			}
		})
		if err != nil {
			rep.fail(err)
			continue
		}
		rep.check(out == outs[i], "%s on %s: verification pass differs from timed pass", p.name, p.dev.Name)
	}
}
