package main

import (
	"fmt"
	"math"
	"sort"

	"codar/internal/metrics"
)

// minBeyond is how many samples must lie beyond a percentile before the
// tail rule may report it.
const minBeyond = 10

// tailLadder lists the percentiles the tail is chosen from, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// rank returns the 0-based nearest-rank index of percentile p in n sorted
// samples: the smallest index whose value is at or above p of the data.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// tail is the tail-latency report: the highest ladder percentile that still
// has at least minBeyond samples strictly beyond its rank.
type tail struct {
	P       float64 // the percentile chosen, e.g. 0.99
	Value   float64
	Samples int // sample count (per window, for a windowed tail)
	Beyond  int // samples beyond the chosen rank
	Windows int // windows the value is the median over; 0 for one pool
}

func (t tail) String() string {
	s := fmt.Sprintf("p%s=%.4f (n=%d, %d beyond)", pctLabel(t.P), t.Value, t.Samples, t.Beyond)
	if t.Windows > 0 {
		s += fmt.Sprintf(", median over %d windows", t.Windows)
	}
	return s
}

// pctLabel renders 0.999 as "99.9".
func pctLabel(p float64) string {
	return fmt.Sprintf("%g", math.Round(p*1e6)/1e4)
}

// tailOf applies the tail rule to sorted. With fewer than minBeyond+1
// samples no percentile qualifies and the maximum is reported as p100.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	t := tail{P: 1, Samples: n}
	if n > 0 {
		t.Value = sorted[n-1]
	}
	for _, p := range tailLadder {
		i := rank(n, p)
		if beyond := n - 1 - i; n > 0 && beyond >= minBeyond {
			t = tail{P: p, Value: sorted[i], Samples: n, Beyond: beyond}
		}
	}
	return t
}

// medianTail applies the tail rule within each window and returns the
// median of the window tails, labelled with the first window's percentile
// and sizes. A burst of host noise then moves the tail of the window it
// falls in, not the reported value.
func medianTail(windows [][]float64) tail {
	var t tail
	vals := make([]float64, 0, len(windows))
	for i, w := range windows {
		wt := tailOf(sortedCopy(w))
		if i == 0 {
			t = wt
		}
		vals = append(vals, wt.Value)
	}
	t.Value = median(vals)
	t.Windows = len(windows)
	return t
}

// windowsOf splits xs into windows of size consecutive samples; a short
// last window joins the one before it.
func windowsOf(xs []float64, size int) [][]float64 {
	var out [][]float64
	for len(xs) >= 2*size {
		out = append(out, xs[:size])
		xs = xs[size:]
	}
	if len(xs) > 0 {
		out = append(out, xs)
	}
	return out
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the repository's median (mean of the middle pair for even n).
var median = metrics.Median
