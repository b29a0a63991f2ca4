package main

import "testing"

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// TestTailRule pins the tail percentile: the highest ladder percentile that
// still has at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{n: 10000, p: 0.999, value: 9990, beyond: 10},
		{n: 9999, p: 0.99, value: 9900, beyond: 99},
		{n: 1000, p: 0.99, value: 990, beyond: 10},
		{n: 999, p: 0.9, value: 900, beyond: 99},
		{n: 100, p: 0.9, value: 90, beyond: 10},
		{n: 99, p: 0.5, value: 50, beyond: 49},
		{n: 5, p: 1, value: 5, beyond: 0},
	} {
		got := tailOf(ascending(tc.n))
		if got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want p=%g value=%g beyond=%d", tc.n, got, tc.p, tc.value, tc.beyond)
		}
		if got.P < 1 && got.Beyond < minBeyond {
			t.Errorf("n=%d: chose p%g with only %d samples beyond", tc.n, got.P, got.Beyond)
		}
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(ascending(100), 0.5); p != 50 {
		t.Errorf("p50 of 1..100 = %g", p)
	}
}

// TestMedianTail checks that a burst in one window moves that window's tail
// but not the reported median over windows.
func TestMedianTail(t *testing.T) {
	w := windowsOf(ascending(1050), 100)
	if len(w) != 10 || len(w[9]) != 150 {
		t.Fatalf("windowsOf(1050, 100): %d windows, last of %d", len(w), len(w[len(w)-1]))
	}
	windows := [][]float64{ascending(100), ascending(100), ascending(100)}
	burst := ascending(100)
	for i := range burst {
		burst[i] *= 50
	}
	windows = append(windows, burst)
	got := medianTail(windows)
	if got.P != 0.9 || got.Value != 90 || got.Windows != 4 {
		t.Errorf("got %+v, want p90 = 90 over 4 windows", got)
	}
}
