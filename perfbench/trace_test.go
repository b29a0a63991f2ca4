package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"codar/internal/arch"
	"codar/internal/qasm"
	"codar/internal/workloads"
)

// TestLedgerReconcilesTinyStream traces a real streamed mapping of a tiny
// circuit and checks that the layer self-times plus the unaccounted time
// add up to the traced wall.
func TestLedgerReconcilesTinyStream(t *testing.T) {
	c := workloads.Random(5, 3000, 40, 7)
	in := streamInput{qasm: qasm.Write(c), gates: c.Len()}
	dev := arch.IBMQ20Tokyo()
	tr := newTracer()
	l := tr.lane(0)
	start := time.Now()
	for k, algo := range streamAlgos {
		if _, err := streamMap(in, dev, algo, l, int64(k), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(start)
	g, err := buildLedger(tr.snapshot(), 1, int64(wall))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"qasm.parse", "circuit.decompose", "core.route", "sabre.route", "qasm.write"} {
		if g.layer(name).SelfNS <= 0 {
			t.Errorf("layer %s has no self time", name)
		}
	}
	if got := g.layer("qasm.parse").Gates; got != int64(2*c.Len()) {
		t.Errorf("qasm.parse counted %d gates, want %d", got, 2*c.Len())
	}
	sum := g.unaccountedShare()
	for name := range g.Layers {
		sum += g.share(name)
	}
	if math.Abs(sum-1) > reconcileSlack {
		t.Errorf("shares + unaccounted = %.4f, want 1", sum)
	}
}

func TestLedgerRejectsMisNestedSpans(t *testing.T) {
	ok := []span{
		{ID: 0, Name: "root", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 40},
		{ID: 2, Name: "b", Parent: 0, Start: 40, End: 90},
	}
	g, err := buildLedger(ok, 1, 120)
	if err != nil {
		t.Fatal(err)
	}
	if g.layer("root").SelfNS != 20 || g.layer("a").SelfNS != 30 || g.Unaccounted != 20 {
		t.Errorf("self times root=%d a=%d unaccounted=%d, want 20 30 20",
			g.layer("root").SelfNS, g.layer("a").SelfNS, g.Unaccounted)
	}

	for name, spans := range map[string][]span{
		"overlapping siblings": {
			{ID: 0, Name: "root", Parent: -1, Start: 0, End: 100},
			{ID: 1, Name: "a", Parent: 0, Start: 10, End: 60},
			{ID: 2, Name: "b", Parent: 0, Start: 40, End: 90},
		},
		"child escapes parent": {
			{ID: 0, Name: "root", Parent: -1, Start: 0, End: 100},
			{ID: 1, Name: "a", Parent: 0, Start: 90, End: 110},
		},
		"never closed": {
			{ID: 0, Name: "root", Parent: -1, Start: 0, End: -1},
		},
		"overlapping roots on one lane": {
			{ID: 0, Name: "r1", Parent: -1, Start: 0, End: 60},
			{ID: 1, Name: "r2", Parent: -1, Start: 50, End: 100},
		},
	} {
		if _, err := buildLedger(spans, 1, 120); err == nil || !strings.Contains(err.Error(), "trace:") {
			t.Errorf("%s: buildLedger error = %v, want a trace error", name, err)
		}
	}
}
