package main

import (
	"slices"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		capPct float64
		want   float64
	}{
		{0, 99, 0},
		{19, 99, 0},
		{20, 99, 50},
		{99, 99, 50},
		{100, 99, 90},
		{199, 99, 90},
		{200, 99, 95},
		{999, 99, 95},
		{1000, 99, 99},
		{9999, 99.9, 99},
		{10000, 99.9, 99.9},
		{10000, 99, 99}, // capped
		{1000, 95, 95},  // capped below what the count supports
		{100000, 99.99, 99.99},
	} {
		if got := tailPercentile(tc.n, tc.capPct); got != tc.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.capPct, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	for _, tc := range []struct{ pct, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}} {
		if got := percentile(append([]float64(nil), xs...), tc.pct); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.pct, got, tc.want)
		}
	}
	// Exactly ten samples lie beyond the tail the rule picks.
	n := 1000
	p := tailPercentile(n, 99)
	v := percentile(append([]float64(nil), xs...), p)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p%v of %d, want 10", beyond, p, n)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{1, 2, 3}, tailPercentile(3, 99)); got != 0 {
		t.Errorf("tail of too few samples = %v, want 0", got)
	}
}

// TestOverWindowsConfinesASpell puts a slow spell in one of four
// windows: the pooled mean moves, the median of the window means does
// not, and the samples keep their order.
func TestOverWindowsConfinesASpell(t *testing.T) {
	var vals []float64
	var win []int
	for i := 0; i < 400; i++ {
		v := 1.0
		if i >= 300 { // the last window
			v = 3
		}
		vals = append(vals, v+float64(i%10)/100)
		win = append(win, i/100)
	}
	before := slices.Clone(vals)
	if got := overWindows(vals, win, median); got < 1.04 || got > 1.05 {
		t.Errorf("median of window medians = %v, want 1.045, the unslowed windows' median", got)
	}
	if !slices.Equal(vals, before) {
		t.Errorf("overWindows reordered its samples")
	}
	if pooled := mean(vals); pooled < 1.5 {
		t.Errorf("pooled mean %v should show the spell", pooled)
	}
	// Windows without samples do not count.
	if got := overWindows([]float64{5, 7}, []int{0, 3}, mean); got != 6 {
		t.Errorf("median over windows 0 and 3 = %v, want 6", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}}, // extrapolated, as Python does
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.data, q1, q2, q3, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}
