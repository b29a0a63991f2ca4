package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// A run repeats its set-up at least setupMinReps times and until
// setupBudget has been spent (at most setupMaxReps times); setup_s is the
// median, so a slow repetition (first-touch page faults, the one-time suite
// probe, a burst of host noise) does not move it. Short set-ups get more
// repetitions.
const (
	setupMinReps = 9
	setupMaxReps = 60
	setupBudget  = 2 * time.Second
)

// timedSetup runs build repeatedly and returns the median time in seconds
// on the reference clock of one probe before each repetition (so the
// median wall ms over the median probe's scale), and the last result.
// Each repetition starts after a forced collection, so none pays for the
// garbage of the one before.
func timedSetup[T any](build func() (T, error)) (float64, T, error) {
	var (
		last          T
		times, probes []float64
		spent         time.Duration
	)
	for len(times) < setupMinReps || (spent < setupBudget && len(times) < setupMaxReps) {
		runtime.GC()
		probes = append(probes, refProbe())
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, float64(d)/1e6)
		last = v
	}
	return refMS([]float64{median(times)}, refScale(probes))[0] / 1000, last, nil
}

// heapMetric is the live heap as of the last completed GC mark. Its
// high-water mark is what the program needed at once; the heap-in-use
// figure would add garbage awaiting collection, whose size depends on
// where the GC pacer happened to trigger.
const heapMetric = "/gc/heap/live:bytes"

func heapSample() []metrics.Sample { return []metrics.Sample{{Name: heapMetric}} }

func readHeap(buf []metrics.Sample) uint64 {
	metrics.Read(buf)
	return buf[0].Value.Uint64()
}

// liveHeap forces a collection and returns the live heap in bytes: exactly
// what is reachable now, not the reading of the last GC mark. It costs a
// full collection, so it is never called in a timed region.
func liveHeap() uint64 {
	runtime.GC()
	return readHeap(heapSample())
}

// overMB is the part of heap bytes v above floor, in MiB.
func overMB(v, floor uint64) float64 {
	if v <= floor {
		return 0
	}
	return float64(v-floor) / (1 << 20)
}

// heapPeak tracks fig8-sweep's live-heap high-water mark over a floor
// taken after a forced collection, per pass. Samples are taken at pair
// boundaries without stopping the world, so each reads the heap as of the
// last GC mark, which fell inside some pair's mapping. The reported figure
// is the median pass peak: the single highest sample depends on which GC
// cycle happened to mark at the busiest moment, the median much less.
type heapPeak struct {
	floor, cur uint64
	buf        []metrics.Sample
	peaks      []float64 // MiB over the floor, one per closed pass
}

func newHeapPeak() *heapPeak { return &heapPeak{floor: liveHeap(), buf: heapSample()} }

// sample records the current heap.
func (h *heapPeak) sample() {
	if v := readHeap(h.buf); v > h.cur {
		h.cur = v
	}
}

// cut closes the current pass.
func (h *heapPeak) cut() {
	h.peaks = append(h.peaks, overMB(h.cur, h.floor))
	h.cur = 0
}

// mb is the median pass peak over the floor, in MiB.
func (h *heapPeak) mb() float64 { return median(h.peaks) }

// gcDelta is the runtime's allocation and GC activity over an interval.
type gcDelta struct {
	allocBytes uint64
	cycles     uint32
	pauseNS    uint64
}

type gcMark runtime.MemStats

func markGC() *gcMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := gcMark(ms)
	return &m
}

// since returns the activity between m and now.
func (m *gcMark) since() gcDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcDelta{
		allocBytes: ms.TotalAlloc - m.TotalAlloc,
		cycles:     ms.NumGC - m.NumGC,
		pauseNS:    ms.PauseTotalNs - m.PauseTotalNs,
	}
}

func (d *gcDelta) add(o gcDelta) {
	d.allocBytes += o.allocBytes
	d.cycles += o.cycles
	d.pauseNS += o.pauseNS
}

// setRuntimeMetrics fills the runtime.* layer metrics for work counted in
// input gates.
func setRuntimeMetrics(m map[string]float64, d gcDelta, gates int64) {
	if gates > 0 {
		m["runtime.alloc_mb_per_kgate"] = float64(d.allocBytes) / (1 << 20) / (float64(gates) / 1000)
	}
	m["runtime.gc_cycles"] = float64(d.cycles)
	m["runtime.gc_pause_ms"] = float64(d.pauseNS) / 1e6
}

// setLatency fills latency.p50_ms from the pooled per-op latencies in ms
// and latency.tail_ms as the median of the window tails (see medianTail),
// and returns the tail report.
func setLatency(m map[string]float64, windows [][]float64) tail {
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	m["latency.p50_ms"] = percentile(sortedCopy(all), 0.5)
	t := medianTail(windows)
	m["latency.tail_ms"] = t.Value
	return t
}

// timedPass is one whole pass of a pass-based workload (fig8-sweep,
// stream-large): what the pass produced, its wall time and GC activity, and
// whether it recorded spans.
type timedPass[P any] struct {
	out    P
	wall   time.Duration
	gc     gcDelta
	traced bool
}

// runPasses runs whole passes until cfg.seconds have elapsed, at least two,
// so a traced run has one untraced and one traced pass to compare. A traced
// run alternates the two: odd passes record spans on lane 0.
func runPasses[P any](cfg config, tr *tracer, pass func(i int, l *lane) P) []timedPass[P] {
	var passes []timedPass[P]
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; len(passes) < 2 || time.Now().Before(deadline); i++ {
		var l *lane
		if i%2 == 1 {
			l = tr.lane(0)
		}
		mark := markGC()
		start := time.Now()
		out := pass(i, l)
		passes = append(passes, timedPass[P]{out: out, wall: time.Since(start), gc: mark.since(), traced: l != nil})
	}
	return passes
}

// passLedger finishes a pass-based traced run: the ledger over the traced
// passes, each of gatesPerPass input gates, with trace.overhead the median
// traced pass wall over the median untraced one, minus 1.
func passLedger[P any](cfg config, workload string, m map[string]float64, tr *tracer, passes []timedPass[P], gatesPerPass int64) error {
	var (
		tracedWall     time.Duration
		traced         int64
		gc             gcDelta
		tWalls, uWalls []float64
	)
	for _, ps := range passes {
		if !ps.traced {
			uWalls = append(uWalls, ps.wall.Seconds())
			continue
		}
		tracedWall += ps.wall
		traced++
		gc.add(ps.gc)
		tWalls = append(tWalls, ps.wall.Seconds())
	}
	g, err := buildLedger(tr.snapshot(), 1, int64(tracedWall))
	if err != nil {
		return err
	}
	return finishTrace(cfg, workload, m, tr, g, median(tWalls)/median(uWalls)-1, gc, traced*gatesPerPass)
}

// finishTrace fills the ledger rows and the runtime rows of the traced
// work (gates input gates, gc its activity), prints the ledger and writes
// the spans.
func finishTrace(cfg config, workload string, m map[string]float64, tr *tracer, g *ledger, overhead float64, gc gcDelta, gates int64) error {
	setLedger(m, g, overhead)
	setRuntimeMetrics(m, gc, gates)
	printLedger(cfg, g)
	return tr.writeFile(cfg.tracePath(workload))
}

// setLedger fills the share and per-gate metrics every workload's ledger
// has, plus the audit rows.
func setLedger(m map[string]float64, g *ledger, overhead float64) {
	for _, l := range []string{"qasm.parse", "sabre.place", "core.route", "sabre.route"} {
		m[l+".ns_per_gate"] = g.nsPerGate(l)
		m[l+".allocs_per_gate"] = g.allocsPerGate(l)
		m[l+".share"] = g.share(l)
	}
	m["qasm.write.ns_per_gate"] = g.nsPerGate("qasm.write")
	m["qasm.write.share"] = g.share("qasm.write")
	if w := g.layer("qasm.write"); w.Gates > 0 {
		m["qasm.write.bytes_per_gate"] = float64(w.Bytes) / float64(w.Gates)
	}
	m["circuit.decompose.ns_per_gate"] = g.nsPerGate("circuit.decompose")
	m["circuit.assemble.ns_per_gate"] = g.nsPerGate("circuit.assemble")
	m["schedule.weighted_depth.ns_per_gate"] = g.nsPerGate("schedule.weighted_depth")
	m["trace.unaccounted_share"] = g.unaccountedShare()
	m["trace.overhead"] = overhead
}

// waitUntil blocks until t. It sleeps to within spinMargin of t and then
// yields in a loop, because a timer wake-up on Linux lands ~0.2 ms late
// (and a sub-millisecond sleep ~0.9 ms late), which would otherwise be
// added to every open-loop request's latency.
func waitUntil(t time.Time) {
	const (
		spinMargin = time.Millisecond
		minSleep   = time.Millisecond
	)
	if d := time.Until(t); d > spinMargin+minSleep {
		time.Sleep(d - spinMargin)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// printLedger writes the traced run's layer table: every span name with its
// self time and share of lane time, then the unaccounted remainder. The
// shares and the unaccounted share sum to 1 within reconcileSlack.
func printLedger(cfg config, g *ledger) {
	w := cfg.out
	fmt.Fprintf(w, "ledger: lane time %.1f ms, self-times + unaccounted reconcile within %.2f%%\n",
		float64(g.LaneNS)/1e6, 100*reconcileSlack)
	fmt.Fprintf(w, "  %-26s %8s %11s %8s %12s %10s %10s\n", "layer", "spans", "self_ms", "share", "work", "ns/unit", "allocs/u")
	for _, n := range g.layerNames() {
		s := g.Layers[n]
		fmt.Fprintf(w, "  %-26s %8d %11.2f %8.4f %12d %10.1f %10.3f\n", n, s.Spans, float64(s.SelfNS)/1e6,
			g.share(n), s.Gates, g.nsPerGate(n), g.allocsPerGate(n))
	}
	fmt.Fprintf(w, "  %-26s %8s %11.2f %8.4f\n", "(unaccounted)", "", float64(g.Unaccounted)/1e6, g.unaccountedShare())
}
