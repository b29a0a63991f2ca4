package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// call into a module's public function. Spans nest by Parent on the lane
// (driving goroutine) that opened them; a server-side span names its
// client-side parent explicitly.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"` // -1 for a root span
	Lane   int32  `json:"lane"`
	Start  int64  `json:"start_ns"` // since the tracer epoch
	End    int64  `json:"end_ns"`
	// Gates is the work count of the call: gates parsed, lowered, placed,
	// routed, scheduled or written; requests answered.
	Gates int64 `json:"gates"`
	// Allocs is heap objects allocated during the span (inclusive). It is
	// process-wide, so only meaningful on single-lane workloads.
	Allocs int64 `json:"allocs"`
	// Bytes is output bytes produced (qasm.write, service responses).
	Bytes int64 `json:"bytes,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// lane is the span stack of one driving goroutine. A nil *lane records
// nothing, so untraced runs pay one branch per call site.
type lane struct {
	t   *tracer
	id  int32
	cur int32
	buf []metrics.Sample
}

func (t *tracer) lane(id int) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, id: int32(id), cur: -1, buf: allocSample()}
}

const allocsMetric = "/gc/heap/allocs:objects"

func allocSample() []metrics.Sample { return []metrics.Sample{{Name: allocsMetric}} }

func readAllocs(buf []metrics.Sample) int64 {
	metrics.Read(buf)
	return int64(buf[0].Value.Uint64())
}

// begin opens a span under the lane's current span and makes it current.
func (l *lane) begin(name string, op int64) int32 {
	if l == nil {
		return -1
	}
	id := l.t.open(name, op, l.cur, l.id, readAllocs(l.buf))
	l.cur = id
	return id
}

// end closes span id (the lane's current span) with its work count.
func (l *lane) end(id int32, gates int64) {
	l.endBytes(id, gates, 0)
}

func (l *lane) endBytes(id int32, gates, bytes int64) {
	if l == nil {
		return
	}
	parent := l.t.close(id, "", gates, bytes, readAllocs(l.buf))
	l.cur = parent
}

func (t *tracer) open(name string, op int64, parent, laneID int32, allocs int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Name: name, Op: op, Parent: parent, Lane: laneID,
		Start: t.now(), End: -1, Allocs: allocs,
	})
	return id
}

// close ends span id; a non-empty name renames it, for spans whose layer is
// known only once the call returns.
func (t *tracer) close(id int32, name string, gates, bytes, allocs int64) (parent int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = t.now()
	if name != "" {
		s.Name = name
	}
	s.Gates = gates
	s.Bytes = bytes
	s.Allocs = allocs - s.Allocs
	return s.Parent
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcileSlack is the share of lane time by which the layer self-times
// plus the unaccounted time may differ from the traced lane time.
const reconcileSlack = 0.005

// layerStat aggregates the spans of one layer.
type layerStat struct {
	Name   string
	Spans  int
	SelfNS int64
	Allocs int64 // self allocations
	Gates  int64
	Bytes  int64
	Durs   []float64 // inclusive span durations, ms
}

// ledger is the per-layer breakdown of one traced run.
type ledger struct {
	Layers      map[string]*layerStat
	LaneNS      int64 // lanes × traced wall
	SelfNS      int64 // Σ layer self time
	Unaccounted int64 // lane time outside every root span
}

func (g *ledger) layer(name string) *layerStat {
	if s, ok := g.Layers[name]; ok {
		return s
	}
	return &layerStat{Name: name}
}

func (g *ledger) share(name string) float64 {
	if g.LaneNS == 0 {
		return 0
	}
	return float64(g.layer(name).SelfNS) / float64(g.LaneNS)
}

func (g *ledger) unaccountedShare() float64 {
	if g.LaneNS == 0 {
		return 0
	}
	return float64(g.Unaccounted) / float64(g.LaneNS)
}

// nsPerGate is a layer's self time per unit of its work count.
func (g *ledger) nsPerGate(name string) float64 {
	s := g.layer(name)
	if s.Gates == 0 {
		return 0
	}
	return float64(s.SelfNS) / float64(s.Gates)
}

func (g *ledger) allocsPerGate(name string) float64 {
	s := g.layer(name)
	if s.Gates == 0 || s.Allocs < 0 {
		return 0
	}
	return float64(s.Allocs) / float64(s.Gates)
}

// p50ms is the median inclusive duration of a layer's spans.
func (g *ledger) p50ms(name string) float64 { return median(g.layer(name).Durs) }

// buildLedger computes self times and checks that they reconcile with the
// traced wall. A span's self time is its duration minus the time its
// children cover; children must lie inside their parent and must not
// overlap each other. The unaccounted time is, per lane, the part of the
// window no root span covers. Self-times plus unaccounted time must equal
// the lane time (lanes × wall) within reconcileSlack, which fails when
// root spans of one lane overlap or leave the traced window.
func buildLedger(spans []span, lanes int, wallNS int64) (*ledger, error) {
	if wallNS <= 0 || lanes <= 0 {
		return nil, fmt.Errorf("trace: empty traced window")
	}
	g := &ledger{Layers: map[string]*layerStat{}, LaneNS: int64(lanes) * wallNS}
	children := map[int32][][2]int64{}
	childAllocs := make([]int64, len(spans))
	roots := map[int32][][2]int64{}
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d (%s) never closed", s.ID, s.Name)
		}
		iv := [2]int64{s.Start, s.End}
		if s.Parent < 0 {
			roots[s.Lane] = append(roots[s.Lane], iv)
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("trace: span %d (%s) escapes its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] = append(children[s.Parent], iv)
		childAllocs[s.Parent] += s.Allocs
	}
	for i, s := range spans {
		var covered int64
		if iv := children[int32(i)]; len(iv) > 0 {
			var sum int64
			for _, x := range iv {
				sum += x[1] - x[0]
			}
			if covered = unionLen(iv); covered != sum {
				return nil, fmt.Errorf("trace: children of span %d (%s) overlap", s.ID, s.Name)
			}
		}
		st, ok := g.Layers[s.Name]
		if !ok {
			st = &layerStat{Name: s.Name}
			g.Layers[s.Name] = st
		}
		self := s.End - s.Start - covered
		st.Spans++
		st.SelfNS += self
		st.Allocs += s.Allocs - childAllocs[i]
		st.Gates += s.Gates
		st.Bytes += s.Bytes
		st.Durs = append(st.Durs, float64(s.End-s.Start)/1e6)
		g.SelfNS += self
	}
	g.Unaccounted = g.LaneNS
	for _, iv := range roots {
		g.Unaccounted -= unionLen(iv)
	}
	if diff := math.Abs(float64(g.SelfNS+g.Unaccounted-g.LaneNS)) / float64(g.LaneNS); diff > reconcileSlack {
		return nil, fmt.Errorf("trace: layer self-times (%.1f ms) + unaccounted (%.1f ms) = %.1f ms, lane time %.1f ms: off by %.2f%% > %.2f%% slack",
			float64(g.SelfNS)/1e6, float64(g.Unaccounted)/1e6, float64(g.SelfNS+g.Unaccounted)/1e6,
			float64(g.LaneNS)/1e6, 100*diff, 100*reconcileSlack)
	}
	if g.Unaccounted < 0 {
		return nil, fmt.Errorf("trace: root spans cover %.1f ms more than the traced window", -float64(g.Unaccounted)/1e6)
	}
	return g, nil
}

// unionLen is the total length covered by a set of intervals; it sorts iv.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerNames returns the ledger's layers by descending self time.
func (g *ledger) layerNames() []string {
	names := make([]string, 0, len(g.Layers))
	for n := range g.Layers {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		return g.Layers[names[a]].SelfNS > g.Layers[names[b]].SelfNS
	})
	return names
}
