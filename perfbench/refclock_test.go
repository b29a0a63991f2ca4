package main

import (
	"math"
	"testing"
)

// TestRefConversions checks that the reference clock scales times and
// rates consistently: at a scale of 2 wall ms per reference ms, 10 wall ms
// read 5 reference ms, and 100 gates in 10 wall ms are 20,000 gates per
// reference second.
func TestRefConversions(t *testing.T) {
	const scale = 2e6 // wall ns per reference ms
	if got := refMS([]float64{10}, scale)[0]; got != 5 {
		t.Errorf("refMS = %v, want 5", got)
	}
	if got := refRate(100, 10, scale); math.Abs(got-20000) > 1e-9 {
		t.Errorf("refRate = %v, want 20000", got)
	}
	if got := refScale([]float64{1000, 3000, 2000}); got != 2000*refProbesPerMS {
		t.Errorf("refScale = %v, want the median probe times refProbesPerMS", got)
	}
}

// TestWindowScales checks that a window without probes borrows the run's
// and that a window's scale comes from its own probes only.
func TestWindowScales(t *testing.T) {
	got := windowScales([][]float64{{0, 1000, 0, 1000}, {0, 0}, {3000, 0}})
	want := []float64{1000 * refProbesPerMS, 1000 * refProbesPerMS, 3000 * refProbesPerMS}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d: scale %v, want %v", i, got[i], want[i])
		}
	}
	if s := windowScales([][]float64{{0}})[0]; !(s > 0) {
		t.Errorf("a run without probes got scale %v, want fresh probes", s)
	}
}
