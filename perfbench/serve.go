package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codar/api"
	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/service"
	"codar/internal/verify"
	"codar/internal/workloads"
)

// serve-mix traffic: an open loop at serveRate requests per second. One
// request in serveFreshEvery carries a fresh seeded circuit (a cache miss
// that parses, places, routes with both mappers and inserts); the rest
// repeat one of the primed suite circuits (a cache hit). Fresh circuit j
// has the qubit count, gate count and two-qubit share of primed circuit j
// (mod servePrimed), so hits and misses carry the same size mix and only
// the gate content varies with the seed. The rate keeps the two-core host
// well below saturation, so latency measures the serving path rather than
// a growing backlog.
const (
	serveRate       = 250
	serveFreshEvery = 10
	servePrimed     = 24
	serveArch       = "tokyo"
	// serveWindow is the request count of one window; latency.tail_ms
	// and gates_per_s are medians over windows. It is the fewest requests
	// for which the tail rule reaches p99: the p90 of a smaller window
	// would sit on the hit/miss boundary.
	serveWindow = 1000
	// spanHeader carries "lane:parent:op" from a traced client request to
	// the server-side span wrapper.
	spanHeader = "X-Perfbench-Span"
)

// serveLanes is the load generator's goroutine and connection count: the
// host's CPU count, at most two.
func serveLanes() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// serveKey is one distinct request: its body, the circuit it maps (for
// verification) and, once answered, the response.
type serveKey struct {
	body  []byte
	c     *circuit.Circuit
	gates int
	resp  []byte // primed keys: the body every repeat must equal
	hash  [sha256.Size]byte
}

// planned is one entry of the request order: which key request i sends.
type planned struct {
	fresh bool
	key   int
}

type serveState struct {
	ts      *httptest.Server
	client  *http.Client
	url     string
	primed  []*serveKey
	fresh   []*serveKey
	plan    []planned
	tr      *tracer
	traceAt int // requests from this index on are traced
}

func (st *serveState) close() {
	st.client.CloseIdleConnections()
	st.ts.Close()
}

func primedCircuits() []*circuit.Circuit {
	var out []*circuit.Circuit
	for _, b := range workloads.SmallSuite() {
		if len(out) == servePrimed {
			break
		}
		if c := b.Circuit(); c.Len() >= 100 && c.Len() <= 1500 {
			out = append(out, c)
		}
	}
	return out
}

func requestBody(c *circuit.Circuit) ([]byte, error) {
	return json.Marshal(api.MapRequest{QASM: qasm.Write(c), Arch: serveArch})
}

// serveSetup starts an in-process codard, primes it with the suite keys,
// and builds the seeded fresh circuits and the request order.
func serveSetup(seed int64, n int, trace bool) func() (*serveState, error) {
	return func() (*serveState, error) {
		st := &serveState{}
		var h http.Handler = service.New(service.Config{Workers: serveLanes()})
		if trace {
			st.tr = newTracer()
			h = &tracedHandler{h: h, tr: st.tr}
		}
		st.ts = httptest.NewServer(h)
		st.url = st.ts.URL
		lanes := serveLanes()
		st.client = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     lanes,
			MaxIdleConnsPerHost: lanes,
			DisableCompression:  true,
		}}
		for _, c := range primedCircuits() {
			body, err := requestBody(c)
			if err != nil {
				st.close()
				return nil, err
			}
			k := &serveKey{body: body, c: c, gates: c.Len()}
			var buf bytes.Buffer
			status, _, err := st.post(body, "", &buf)
			if err != nil || status != http.StatusOK {
				st.close()
				return nil, fmt.Errorf("priming %s: status %d: %v", c.Name, status, err)
			}
			k.resp = append([]byte(nil), buf.Bytes()...)
			st.primed = append(st.primed, k)
		}

		rng := rand.New(rand.NewSource(seed))
		nFresh := n / serveFreshEvery
		for j := 0; j < nFresh; j++ {
			shape := st.primed[j%len(st.primed)].c
			cx := (100*shape.TwoQubitCount() + shape.Len()/2) / shape.Len()
			c := workloads.Random(shape.NumQubits, shape.Len(), cx, seed*1_000_003+int64(j))
			body, err := requestBody(c)
			if err != nil {
				st.close()
				return nil, err
			}
			st.fresh = append(st.fresh, &serveKey{body: body, c: c, gates: c.Len()})
		}
		st.plan = make([]planned, n)
		for i := range st.plan {
			if i < nFresh {
				st.plan[i] = planned{fresh: true, key: i}
			} else {
				st.plan[i] = planned{key: i % len(st.primed)}
			}
		}
		rng.Shuffle(n, func(a, b int) { st.plan[a], st.plan[b] = st.plan[b], st.plan[a] })
		st.traceAt = n
		if trace {
			st.traceAt = n / 2
		}
		return st, nil
	}
}

// post sends one /v1/map request and reads the whole response into dst.
func (st *serveState) post(body []byte, spanRef string, dst *bytes.Buffer) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, st.url+"/v1/map", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanRef != "" {
		req.Header.Set(spanHeader, spanRef)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	dst.Reset()
	_, err = dst.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get(api.HeaderCache), err
}

// tracedHandler records a server-side span for each request that carries
// a span reference, named by the response's cache disposition
// (service.hit, service.miss, ...).
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref := r.Header.Get(spanHeader)
	if ref == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	laneID, parent, op, err := parseSpanRef(ref)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cw := &countingResponse{ResponseWriter: w}
	id := t.tr.open("service.request", op, parent, laneID, 0)
	t.h.ServeHTTP(cw, r)
	name := "service." + w.Header().Get(api.HeaderCache)
	if cw.status != 0 && cw.status != http.StatusOK {
		name = "service.error"
	}
	t.tr.close(id, name, 1, cw.n, 0)
}

type countingResponse struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingResponse) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingResponse) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// timing is one open-loop request's clock readings, relative to the start
// of the schedule, and the reference probe (ns) its lane ran before waiting
// for it, 0 if none.
type timing struct {
	due, sent, done time.Duration
	probe           float64
}

// probeSlack is how far ahead of a request's due time its lane must be to
// run a reference probe first. A probe takes well under 0.1 ms, and the
// lane sleeps until 1 ms before the due time anyway.
const probeSlack = 2 * time.Millisecond

func (t timing) latencyMS() float64 { return float64(t.done-t.due) / 1e6 }
func (t timing) lateMS() float64    { return float64(t.sent-t.due) / 1e6 }

// openLoop issues n requests on a fixed schedule, request i due at
// i×interval, from `lanes` goroutines that each take the next request
// index, wait for its due time and send it. A request is timed from its
// due time, not from when it was sent, so a stalled request delays the
// requests queued behind it and that delay counts in their latency. Each
// request from index traceAt on is traced: a loadgen.wait span for the
// pacing and a loadgen.request span around send, whose id send receives.
// With probe set, a lane that is more than probeSlack ahead of a request's
// due time runs a reference probe before waiting for it.
func openLoop(n int, interval time.Duration, lanes int, tr *tracer, traceAt int, probe bool, send func(i int, l *lane, span int32)) []timing {
	ts := make([]timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for li := 0; li < lanes; li++ {
		wg.Add(1)
		go func(traced *lane) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var l *lane
				if i >= traceAt {
					l = traced
				}
				due := time.Duration(i) * interval
				var probeNS float64
				if probe && time.Until(start.Add(due)) > probeSlack {
					probeNS = refProbe()
				}
				w := l.begin("loadgen.wait", int64(i))
				waitUntil(start.Add(due))
				l.end(w, 0)
				r := l.begin("loadgen.request", int64(i))
				sent := time.Since(start)
				send(i, l, r)
				done := time.Since(start)
				l.end(r, 1)
				ts[i] = timing{due: due, sent: sent, done: done, probe: probeNS}
			}
		}(tr.lane(li))
	}
	wg.Wait()
	return ts
}

// reqResult is what the load generator learned from one response.
type reqResult struct {
	err   error
	hit   bool // X-Codard-Cache: hit
	bytes int
}

// judge decides whether one response is correct. Anything but a 200 with
// the expected bytes is a failure: a primed key must return exactly the
// bytes it was primed with.
func judge(status int, err error, body, want []byte) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if want != nil && !bytes.Equal(body, want) {
		return fmt.Errorf("response differs from the primed response")
	}
	return nil
}

// drive runs the open loop over st.plan and returns each request's timing
// and result. Fresh responses are hashed for the repeat check.
func (st *serveState) drive() ([]timing, []reqResult) {
	n := len(st.plan)
	res := make([]reqResult, n)
	lanes := serveLanes()
	// A pool of one response buffer per lane; a lane holds one at a time.
	pool := make(chan *bytes.Buffer, lanes)
	for i := 0; i < lanes; i++ {
		pool <- new(bytes.Buffer)
	}
	ts := openLoop(n, time.Second/serveRate, lanes, st.tr, st.traceAt, st.tr == nil, func(i int, l *lane, span int32) {
		buf := <-pool
		defer func() { pool <- buf }()
		p := st.plan[i]
		key := st.primed
		if p.fresh {
			key = st.fresh
		}
		k := key[p.key]
		ref := ""
		if l != nil {
			ref = fmt.Sprintf("%d:%d:%d", l.id, span, i)
		}
		status, disp, err := st.post(k.body, ref, buf)
		res[i] = reqResult{err: judge(status, err, buf.Bytes(), k.resp), hit: disp == "hit", bytes: buf.Len()}
		if p.fresh && res[i].err == nil {
			k.hash = sha256.Sum256(buf.Bytes())
		}
	})
	return ts, res
}

func (st *serveState) stats() (api.StatsResponse, error) {
	var s api.StatsResponse
	resp, err := st.client.Get(st.url + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// runServe is the serve-mix workload.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	n := int(cfg.seconds * serveRate)
	if n < 2*serveFreshEvery {
		n = 2 * serveFreshEvery
	}
	var prev *serveState
	setupS, st, err := timedSetup(func() (*serveState, error) {
		if prev != nil {
			prev.close()
		}
		s, err := serveSetup(cfg.seed, n, cfg.trace)()
		prev = s
		return s, err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.metrics["setup_s"] = setupS
	dev, err := arch.ByName(serveArch)
	if err != nil {
		return nil, err
	}

	before, err := st.stats()
	if err != nil {
		return nil, err
	}
	// peak_heap_mb is what the loop left reachable. The result cache fills
	// during the loop and, once at its entry capacity, replaces entries
	// (service.evictions), so this is the high-water mark of the state the
	// service keeps. It is measured exactly, after
	// a forced collection, over a floor taken the same way; a reading
	// without one reports the heap as of the last GC mark, which varies
	// with GC timing. A miss's transient mapping state is not included.
	floor := liveHeap()
	mark := markGC()
	ts, res := st.drive()
	gc := mark.since()
	peakMB := overMB(liveHeap(), floor)
	after, err := st.stats()
	if err != nil {
		return nil, err
	}

	gates, perGates, perBusyMS := tally(rep, st, ts, res)
	out := serveChecks(rep, st, dev)
	if rep.failed > 0 {
		return rep, nil
	}

	m := rep.metrics
	if cfg.trace {
		return rep, serveLedger(cfg, rep, st, ts, res, before, after, gc, gates, out)
	}
	// Each window of serveWindow requests is read on the reference clock of
	// the probes its lanes ran.
	lat := make([]float64, len(ts))
	probes := make([]float64, len(ts))
	for i, t := range ts {
		lat[i] = t.latencyMS()
		probes[i] = t.probe
	}
	scales := windowScales(windowsOf(probes, serveWindow))
	latW := windowsOf(lat, serveWindow)
	busyW := windowsOf(perBusyMS, serveWindow)
	var rates []float64
	for w, gw := range windowsOf(perGates, serveWindow) {
		var g, busy float64
		for j := range gw {
			g += gw[j]
			busy += busyW[w][j]
		}
		rates = append(rates, refRate(g, busy, scales[w]))
		latW[w] = refMS(latW[w], scales[w])
	}
	m["gates_per_s"] = median(rates)
	t := setLatency(m, latW)
	m["peak_heap_mb"] = peakMB
	m["out.makespan_kcycles"] = float64(out.wd) / 1000
	m["out.speedup"] = out.speedupSum / float64(out.keys)
	m["out.swaps_per_kgate"] = float64(out.swaps) / (float64(out.gates) / 1000)
	rep.note("serve-mix: %d requests at %d/s from %d lanes, %d fresh, latency tail %s; %s",
		n, serveRate, serveLanes(), len(st.fresh), t, refNote(scales))
	return rep, nil
}

// tally counts every request as attempted and every failed one as failed.
// It returns the input gates answered and, per request, the gates answered
// and the send-to-answer time in ms (both 0 for a failed request). The
// gates over the summed time are the serving rate: that time is the
// program's own, without the pacing, so the rate falls when either the hit
// or the miss path slows.
func tally(rep *report, st *serveState, ts []timing, res []reqResult) (gates int64, perGates, perBusyMS []float64) {
	perGates = make([]float64, len(res))
	perBusyMS = make([]float64, len(res))
	for i, r := range res {
		if r.err != nil {
			rep.fail(fmt.Errorf("request %d: %w", i, r.err))
			continue
		}
		rep.attempted++
		p := st.plan[i]
		keys := st.primed
		if p.fresh {
			keys = st.fresh
		}
		k := keys[p.key]
		gates += int64(k.gates)
		perGates[i] = float64(k.gates)
		perBusyMS[i] = float64(ts[i].done-ts[i].sent) / 1e6
	}
	return gates, perGates, perBusyMS
}

// windowScales returns each window's reference scale (see refScale) from
// the probes its requests carry (0 for none). A window in which the lanes
// never had time to spare takes the scale of all the run's probes, and a
// run without any probes that of 64 probes run now.
func windowScales(windows [][]float64) []float64 {
	var all []float64
	perWindow := make([][]float64, len(windows))
	for w, win := range windows {
		for _, ns := range win {
			if ns > 0 {
				perWindow[w] = append(perWindow[w], ns)
			}
		}
		all = append(all, perWindow[w]...)
	}
	if len(all) == 0 {
		for i := 0; i < 64; i++ {
			all = append(all, refProbe())
		}
	}
	scales := make([]float64, len(windows))
	for w, p := range perWindow {
		if len(p) == 0 {
			p = all
		}
		scales[w] = refScale(p)
	}
	return scales
}

// serveOut sums the mapping quality over distinct keys.
type serveOut struct {
	keys                   int
	wd, swaps, gates       int64
	codarSwaps, sabreSwaps int64 // fresh keys only: mapped during the run
	speedupSum             float64
}

// serveChecks runs the output checks after the loop: every fresh key is
// requested again and must return the bytes it returned in the loop, and
// every distinct response (primed and fresh) must decode, pass coupling
// compliance and logical equivalence, and report the weighted depth of the
// circuit it carries.
func serveChecks(rep *report, st *serveState, dev *arch.Device) serveOut {
	var out serveOut
	var buf bytes.Buffer
	check := func(k *serveKey, body []byte, fresh bool) {
		var resp api.MapResponse
		err := json.Unmarshal(body, &resp)
		if err == nil {
			err = verifyResponse(k.c, &resp, dev)
		}
		rep.check(err == nil, "%s: %v", k.c.Name, err)
		if err != nil {
			return
		}
		out.keys++
		out.wd += int64(resp.WeightedDepth)
		out.swaps += int64(resp.Swaps)
		out.gates += int64(resp.InputGates)
		out.speedupSum += resp.Speedup
		if fresh {
			out.codarSwaps += int64(resp.Swaps)
			out.sabreSwaps += int64(resp.BaselineSwaps)
		}
	}
	for _, k := range st.primed {
		check(k, k.resp, false)
	}
	for _, k := range st.fresh {
		status, _, err := st.post(k.body, "", &buf)
		if err = judge(status, err, buf.Bytes(), nil); err != nil {
			rep.fail(fmt.Errorf("%s repeat: %w", k.c.Name, err))
			continue
		}
		rep.check(sha256.Sum256(buf.Bytes()) == k.hash, "%s: repeat returned different bytes", k.c.Name)
		check(k, buf.Bytes(), true)
	}
	return out
}

// verifyResponse checks one mapped response against its source circuit.
// The service places with SABRE reverse traversal at the response's seed,
// so the same placement recomputed here is the initial layout the
// equivalence check needs.
func verifyResponse(c *circuit.Circuit, resp *api.MapResponse, dev *arch.Device) error {
	mapped, err := qasm.Parse(resp.MappedQASM)
	if err != nil {
		return fmt.Errorf("mapped qasm: %w", err)
	}
	initial, err := sabre.InitialLayout(c, dev, resp.Seed, sabre.Options{})
	if err != nil {
		return err
	}
	if err := verify.Compliance(mapped, dev); err != nil {
		return err
	}
	if err := verify.Equivalence(c, mapped, initial); err != nil {
		return err
	}
	if wd := schedule.WeightedDepth(mapped, dev.Durations); wd != resp.WeightedDepth {
		return fmt.Errorf("reported weighted depth %d, recomputed %d", resp.WeightedDepth, wd)
	}
	if resp.InputGates != c.Len() {
		return fmt.Errorf("reported %d input gates, sent %d", resp.InputGates, c.Len())
	}
	return nil
}

func serveLedger(cfg config, rep *report, st *serveState, ts []timing, res []reqResult,
	before, after api.StatsResponse, gc gcDelta, gates int64, out serveOut) error {
	spans := st.tr.snapshot()
	var lo, hi int64 = -1, 0
	for _, s := range spans {
		if lo < 0 || s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	g, err := buildLedger(spans, serveLanes(), hi-lo)
	if err != nil {
		return err
	}
	// Overhead: a hit's send-to-answer time, traced half against untraced.
	var tHit, uHit, late []float64
	var hits, answered int
	var respBytes int64
	for i, t := range ts {
		r := res[i]
		if r.err != nil {
			continue
		}
		svc := float64(t.done-t.sent) / 1e6
		if i < st.traceAt {
			if r.hit {
				uHit = append(uHit, svc)
			}
			continue
		}
		answered++
		respBytes += int64(r.bytes)
		late = append(late, t.lateMS())
		if r.hit {
			hits++
			tHit = append(tHit, svc)
		}
	}
	m := rep.metrics
	m["service.hit.p50_ms"] = g.p50ms("service.hit")
	m["service.miss.p50_ms"] = g.p50ms("service.miss")
	if answered > 0 {
		m["service.hit_ratio"] = float64(hits) / float64(answered)
		m["service.resp_kb_per_req"] = float64(respBytes) / 1024 / float64(answered)
	}
	m["service.collapsed"] = float64(after.Collapsed - before.Collapsed)
	m["service.rejected"] = float64(after.Rejected - before.Rejected)
	m["service.evictions"] = float64(after.CacheEvictions - before.CacheEvictions)
	m["core.route.swaps"] = float64(out.codarSwaps)
	m["sabre.route.swaps"] = float64(out.sabreSwaps)
	sl := sortedCopy(late)
	m["loadgen.late_p50_ms"] = percentile(sl, 0.5)
	lt := tailOf(sl)
	m["loadgen.late_tail_ms"] = lt.Value
	rep.note("serve-mix traced half: %d requests, late tail %s", len(late), lt)
	return finishTrace(cfg, "serve-mix", m, st.tr, g, median(tHit)/median(uHit)-1, gc, gates)
}

// parseSpanRef is the inverse of the "lane:parent:op" header drive sends.
func parseSpanRef(ref string) (laneID, parent int32, op int64, err error) {
	f := strings.Split(ref, ":")
	if len(f) != 3 {
		return 0, 0, 0, fmt.Errorf("span ref %q: want lane:parent:op", ref)
	}
	l, err1 := strconv.ParseInt(f[0], 10, 32)
	p, err2 := strconv.ParseInt(f[1], 10, 32)
	o, err3 := strconv.ParseInt(f[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("span ref %q: not numeric", ref)
	}
	return int32(l), int32(p), o, nil
}
