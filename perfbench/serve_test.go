package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls one request and checks that the
// requests queued behind it are charged the wait: latency runs from the
// due time, not from when the generator got round to sending.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	timings := openLoop(8, 2*time.Millisecond, 1, nil, 8, false, func(i int, _ *lane, _ int32) {
		resp, err := ts.Client().Get(ts.URL)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	if got := timings[1].latencyMS(); got > 40 {
		t.Errorf("request before the stall took %.1f ms", got)
	}
	for i := 3; i < 6; i++ {
		if got := timings[i].latencyMS(); got < 40 {
			t.Errorf("request %d behind the stall: latency %.1f ms, want > 40 (timed from its due time)", i, got)
		}
		if got := timings[i].lateMS(); got < 40 {
			t.Errorf("request %d behind the stall: sent %.1f ms late, want > 40", i, got)
		}
	}
}

// TestFailedResponsesCount drives the serve-mix loop against a server that
// answers some requests with an error status or the wrong bytes: each of
// those is a failure, never a success.
func TestFailedResponsesCount(t *testing.T) {
	good := []byte(`{"mapped_qasm":"ok"}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch string(body) {
		case "500":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "wrong":
			w.Write([]byte(`{"mapped_qasm":"other"}`))
		default:
			w.Write(good)
		}
	}))
	defer ts.Close()
	st := &serveState{
		ts:     ts,
		client: ts.Client(),
		url:    ts.URL,
		primed: []*serveKey{
			{body: []byte("ok"), resp: good, gates: 10},
			{body: []byte("500"), resp: good, gates: 10},
			{body: []byte("wrong"), resp: good, gates: 10},
		},
	}
	for i := 0; i < 9; i++ {
		st.plan = append(st.plan, planned{key: i % 3})
	}
	st.traceAt = len(st.plan)
	timings, res := st.drive()
	rep := newReport()
	gates, _, _ := tally(rep, st, timings, res)
	if rep.attempted != 9 || rep.failed != 6 {
		t.Errorf("attempted=%d failed=%d, want 9 and 6", rep.attempted, rep.failed)
	}
	if gates != 30 {
		t.Errorf("answered gates = %d, want 30 (successes only)", gates)
	}
}

func TestJudge(t *testing.T) {
	want := []byte("abc")
	for _, tc := range []struct {
		status int
		body   []byte
		want   []byte
		ok     bool
	}{
		{200, want, want, true},
		{200, []byte("abd"), want, false},
		{200, []byte("anything"), nil, true},
		{429, want, want, false},
		{500, want, nil, false},
	} {
		if err := judge(tc.status, nil, tc.body, tc.want); (err == nil) != tc.ok {
			t.Errorf("judge(%d, %q, %q) = %v, want ok=%v", tc.status, tc.body, tc.want, err, tc.ok)
		}
	}
	if judge(200, io.ErrUnexpectedEOF, want, want) == nil {
		t.Error("a transport error must fail")
	}
}

func TestSpanRefRoundTrip(t *testing.T) {
	l, p, op, err := parseSpanRef("1:42:7")
	if err != nil || l != 1 || p != 42 || op != 7 {
		t.Errorf("parseSpanRef = %d %d %d %v", l, p, op, err)
	}
	for _, bad := range []string{"", "1:2", "a:b:c"} {
		if _, _, _, err := parseSpanRef(bad); err == nil {
			t.Errorf("parseSpanRef(%q) accepted", bad)
		}
	}
}
