package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/verify"
	"codar/internal/workloads"
)

// stream-large input: one seeded 16-qubit random circuit, rendered as QASM
// text. At this size a pass takes ~1.8 s on a 2-vCPU host, so a 30 s run
// makes about 16 passes, each a latency window of ~390 chunk gaps (~200
// per mapper), enough for the tail rule to reach p90 in every window.
const (
	streamQubits    = 16
	streamGates     = 200_000
	streamCXPercent = 45
	streamDevice    = "tokyo"
)

type streamInput struct {
	qasm  string
	gates int
}

func streamSetup(seed int64) func() (streamInput, error) {
	return func() (streamInput, error) {
		c := workloads.Random(streamQubits, streamGates, streamCXPercent, seed)
		return streamInput{qasm: qasm.Write(c), gates: c.Len()}, nil
	}
}

// countWriter counts (and optionally hashes) the mapped QASM bytes; the
// timed passes discard the text itself.
type countWriter struct {
	n int64
	h hash.Hash
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if w.h != nil {
		w.h.Write(p)
	}
	return len(p), nil
}

// WriteString spares qasm.StreamWriter's io.WriteString a copy per gate.
func (w *countWriter) WriteString(s string) (int, error) {
	w.n += int64(len(s))
	if w.h != nil {
		io.WriteString(w.h, s)
	}
	return len(s), nil
}

// tracedSource pulls its inner source in batches, each batch one span, so
// a traced run times the front end without a span per gate. It is used
// only in traced runs; the gates it passes on are the inner source's.
type tracedSource struct {
	src  circuit.Source
	l    *lane
	name string
	op   int64
	buf  []circuit.Gate
	pos  int
	err  error
}

const tracedBatch = 1024

func (s *tracedSource) NumQubits() int { return s.src.NumQubits() }
func (s *tracedSource) NumClbits() int { return s.src.NumClbits() }

func (s *tracedSource) Next() (circuit.Gate, error) {
	if s.pos == len(s.buf) {
		if s.err != nil {
			return circuit.Gate{}, s.err
		}
		s.buf, s.pos = s.buf[:0], 0
		id := s.l.begin(s.name, s.op)
		for len(s.buf) < tracedBatch {
			g, err := s.src.Next()
			if err != nil {
				s.err = err
				break
			}
			s.buf = append(s.buf, g)
		}
		s.l.end(id, int64(len(s.buf)))
		if len(s.buf) == 0 {
			return circuit.Gate{}, s.err
		}
	}
	g := s.buf[s.pos]
	s.pos++
	return g, nil
}

// streamRun is one mapper's streamed pass over the input.
type streamRun struct {
	gaps       []float64 // ms from the previous chunk flush (or the start), onChunk excluded
	firstChunk float64   // ms
	chunks     int
	bytes      int64
	swaps      int
	makespan   int
	cycles     int
}

// streamMap runs QASM text → qasm.Stream → circuit.DecomposeSource →
// {core,sabre}.RemapStream (trivial layout) → qasm.StreamWriter. h, when
// non-nil, hashes the output; onChunk, when non-nil, runs after each chunk
// is written, outside the chunk gaps.
func streamMap(in streamInput, dev *arch.Device, algo string, l *lane, op int64, h hash.Hash, onChunk func()) (*streamRun, error) {
	root := l.begin("bench.stream", op)
	defer l.end(root, int64(in.gates))
	run := &streamRun{}
	out := &countWriter{h: h}
	start := time.Now()

	s := l.begin("qasm.parse", op)
	st, err := qasm.NewStream(strings.NewReader(in.qasm))
	l.end(s, 0)
	if err != nil {
		return nil, err
	}
	var src circuit.Source = st
	if l != nil {
		src = &tracedSource{src: src, l: l, name: "qasm.parse", op: op}
	}
	src = circuit.NewDecomposeSource(src)
	if l != nil {
		src = &tracedSource{src: src, l: l, name: "circuit.decompose", op: op}
	}

	s = l.begin("qasm.write", op)
	sw, err := qasm.NewStreamWriter(out, dev.NumQubits, st.NumClbits())
	l.endBytes(s, 0, out.n)
	if err != nil {
		return nil, err
	}
	last := start
	sink := schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
		w := l.begin("qasm.write", op)
		before := out.n
		for _, g := range chunk {
			if err := sw.WriteGate(g.Gate); err != nil {
				return err
			}
		}
		l.endBytes(w, int64(len(chunk)), out.n-before)
		now := time.Now()
		run.gaps = append(run.gaps, float64(now.Sub(last))/1e6)
		if run.chunks == 0 {
			run.firstChunk = float64(now.Sub(start)) / 1e6
		}
		run.chunks++
		if onChunk != nil {
			onChunk()
			now = time.Now()
		}
		last = now
		return nil
	})

	switch algo {
	case "codar":
		s = l.begin("core.route", op)
		res, err := core.RemapStream(src, dev, nil, core.Options{}, sink)
		l.end(s, int64(in.gates))
		if err != nil {
			return nil, err
		}
		run.swaps, run.makespan, run.cycles = res.SwapCount, res.Makespan, res.Cycles
	case "sabre":
		s = l.begin("sabre.route", op)
		res, err := sabre.RemapStream(src, dev, nil, sabre.Options{}, sink)
		l.end(s, int64(in.gates))
		if err != nil {
			return nil, err
		}
		run.swaps, run.makespan = res.SwapCount, res.Makespan
	default:
		return nil, fmt.Errorf("unknown mapper %q", algo)
	}
	run.bytes = out.n
	return run, nil
}

var streamAlgos = []string{"codar", "sabre"}

// streamPass is one pass: the input streamed through CODAR, then through
// SABRE. runs and errs are indexed like streamAlgos; a failed run is nil.
type streamPass struct {
	runs   []*streamRun
	errs   []error
	probes []float64 // reference probes (ns), one after each chunk when probing
	work   float64   // wall ms of the mappers, probes excluded
}

// runStreamPass streams the input through each mapper once. With probe
// set, a reference probe runs after each chunk, outside the pass's timing.
func runStreamPass(in streamInput, dev *arch.Device, l *lane, passIdx int, probe bool) streamPass {
	ps := streamPass{runs: make([]*streamRun, len(streamAlgos)), errs: make([]error, len(streamAlgos))}
	var onChunk func()
	if probe {
		onChunk = func() { ps.probes = append(ps.probes, refProbe()) }
	}
	start := time.Now()
	for k, algo := range streamAlgos {
		ps.runs[k], ps.errs[k] = streamMap(in, dev, algo, l, int64(passIdx*len(streamAlgos)+k), nil, onChunk)
	}
	ps.work = float64(time.Since(start)) / 1e6
	for _, ns := range ps.probes {
		ps.work -= ns / 1e6
	}
	return ps
}

// runStream is the stream-large workload: one large seeded circuit as QASM
// text through the streaming pipeline, once per mapper per pass. The front
// end and the writer carry a large share of the work here, and placement
// none (trivial layout).
func runStream(cfg config) (*report, error) {
	rep := newReport()
	setupS, in, err := timedSetup(streamSetup(cfg.seed))
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS
	dev, err := arch.ByName(streamDevice)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	passes := runPasses(cfg, tr, func(i int, l *lane) streamPass {
		return runStreamPass(in, dev, l, i, !cfg.trace)
	})
	gatesPerPass := int64(len(streamAlgos) * in.gates)

	// Every streamed run must match the first pass's run of its mapper.
	ref := passes[0].out
	for pi, tp := range passes {
		ps := tp.out
		for k, algo := range streamAlgos {
			if ps.errs[k] != nil {
				rep.fail(fmt.Errorf("pass %d %s: %w", pi, algo, ps.errs[k]))
				continue
			}
			r, r0 := ps.runs[k], ref.runs[k]
			rep.check(r0 != nil && r.bytes == r0.bytes && r.swaps == r0.swaps && r.makespan == r0.makespan && r.chunks == r0.chunks,
				"pass %d %s: streamed output changed", pi, algo)
		}
	}
	wds, peakMB := streamChecks(rep, in, dev, ref)
	if rep.failed > 0 {
		return rep, nil
	}

	m := rep.metrics
	if cfg.trace {
		var first []float64
		for _, ps := range passes {
			if ps.traced {
				first = append(first, ps.out.runs[0].firstChunk)
			}
		}
		codar, sabreRun := ref.runs[0], ref.runs[1]
		m["core.route.swaps"] = float64(codar.swaps)
		m["core.route.cycles"] = float64(codar.cycles)
		m["sabre.route.swaps"] = float64(sabreRun.swaps)
		m["stream.first_chunk_ms"] = median(first)
		m["stream.chunks"] = float64(codar.chunks + sabreRun.chunks)
		return rep, passLedger(cfg, "stream-large", m, tr, passes, gatesPerPass)
	}

	// Each pass is one latency window: the chunk gaps of both mappers, on
	// the reference clock of the probes run between chunks.
	var rates, scales []float64
	var gaps [][]float64
	for _, ps := range passes {
		scale := refScale(ps.out.probes)
		scales = append(scales, scale)
		rates = append(rates, refRate(float64(gatesPerPass), ps.out.work, scale))
		var w []float64
		for _, r := range ps.out.runs {
			w = append(w, r.gaps...)
		}
		gaps = append(gaps, refMS(w, scale))
	}
	m["gates_per_s"] = median(rates)
	t := setLatency(m, gaps)
	m["peak_heap_mb"] = peakMB
	m["out.makespan_kcycles"] = float64(wds[0]) / 1000
	m["out.speedup"] = float64(wds[1]) / float64(wds[0])
	m["out.swaps_per_kgate"] = float64(ref.runs[0].swaps) / (float64(in.gates) / 1000)
	rep.note("stream-large: %d gates, %d passes, chunk-gap tail %s; %s", in.gates, len(passes), t, refNote(scales))
	return rep, nil
}

// streamHeapEvery is how often the hashed pass measures the live heap: at
// every fourth chunk boundary, a forced collection each.
const streamHeapEvery = 4

// streamChecks runs the output checks outside the timed region. For each
// mapper: one more streamed pass hashes its output, the batch path maps the
// same text, and the two renderings must hash equal and report the same
// makespan; the batch output must pass coupling compliance and logical
// equivalence. It returns each mapper's output weighted depth, the Fig 8
// measure, recomputed from the output circuit, and the streamed pipeline's
// peak live heap in MiB.
//
// The peak is taken in the hashed passes, before the batch circuits exist:
// the live heap over a floor, measured exactly (after a forced collection)
// at every streamHeapEvery-th chunk boundary, maximum over boundaries and
// mappers. It is what the pipeline holds between chunks, its O(window)
// state. A timed pass cannot force collections, and a non-forced reading
// reports the heap as of the last GC mark, which varies with GC timing.
func streamChecks(rep *report, in streamInput, dev *arch.Device, ref streamPass) ([]int, float64) {
	wds := make([]int, len(streamAlgos))
	hashes := make([][]byte, len(streamAlgos))
	peakMB := 0.0
	for k, algo := range streamAlgos {
		h := sha256.New()
		floor := liveHeap()
		var peak uint64
		chunks := 0
		sr, err := streamMap(in, dev, algo, nil, 0, h, func() {
			if chunks++; chunks%streamHeapEvery == 0 {
				peak = max(peak, liveHeap())
			}
		})
		if err != nil {
			rep.fail(fmt.Errorf("hashed %s stream: %w", algo, err))
			continue
		}
		peakMB = max(peakMB, overMB(peak, floor))
		hashes[k] = h.Sum(nil)
		rep.check(ref.runs[k] != nil && sr.bytes == ref.runs[k].bytes && sr.makespan == ref.runs[k].makespan,
			"%s: hashed stream differs from timed streams", algo)
	}

	parsed, err := qasm.Parse(in.qasm)
	if err != nil {
		rep.fail(fmt.Errorf("batch parse: %w", err))
		return wds, peakMB
	}
	c := circuit.Decompose(parsed)
	trivial := arch.NewTrivialLayout(c.NumQubits, dev.NumQubits)
	for k, algo := range streamAlgos {
		if hashes[k] == nil {
			continue
		}
		var (
			mapped   *circuit.Circuit
			makespan int
		)
		switch algo {
		case "codar":
			res, err := core.Remap(c, dev, nil, core.Options{})
			if err != nil {
				rep.fail(fmt.Errorf("batch codar: %w", err))
				continue
			}
			mapped, makespan = res.Circuit, res.Makespan
		case "sabre":
			res, err := sabre.Remap(c, dev, nil, sabre.Options{})
			if err != nil {
				rep.fail(fmt.Errorf("batch sabre: %w", err))
				continue
			}
			mapped = res.Circuit
			makespan = schedule.WeightedDepth(mapped, dev.Durations)
		}
		mapped.Name = ""
		batch := sha256.Sum256([]byte(qasm.Write(mapped)))
		rep.check(bytes.Equal(batch[:], hashes[k]), "%s: streamed output hash differs from batch output hash", algo)
		rep.check(ref.runs[k].makespan == makespan, "%s: streamed makespan %d, batch %d", algo, ref.runs[k].makespan, makespan)
		err = verify.Compliance(mapped, dev)
		if err == nil {
			err = verify.Equivalence(c, mapped, trivial)
		}
		rep.check(err == nil, "%s: verify: %v", algo, err)
		wds[k] = schedule.WeightedDepth(mapped, dev.Durations)
	}
	return wds, peakMB
}
