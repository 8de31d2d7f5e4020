package main

import (
	"fmt"
	"sort"
	"time"
)

// ladder is the set of percentiles a tail may be reported at, as exact
// fractions num/den so that the "samples beyond" count is integer math.
var ladder = []struct{ num, den int }{
	{50, 100}, {90, 100}, {95, 100}, {99, 100}, {999, 1000}, {9999, 10000},
}

// rank is the 1-based nearest-rank index of percentile num/den among n
// sorted samples: the smallest rank r with r/n ≥ num/den.
func rank(n, num, den int) int {
	r := (n*num + den - 1) / den
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten of n samples beyond it, capped at capPct, or 0 when even the
// median has fewer than ten samples above it. A fixed cap per workload
// keeps the reported percentile from moving when a faster program
// completes more samples in the same run length.
func tailPercentile(n int, capPct float64) float64 {
	best := 0.0
	for _, p := range ladder {
		pct := 100 * float64(p.num) / float64(p.den)
		if pct > capPct {
			break
		}
		if n-rank(n, p.num, p.den) >= 10 {
			best = pct
		}
	}
	return best
}

// percentile returns the nearest-rank pct-th percentile of xs (which it
// sorts in place), or 0 for no samples or for pct 0, the tailPercentile
// of too few samples. pct is a ladder percentile.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 || pct == 0 {
		return 0
	}
	sort.Float64s(xs)
	for _, p := range ladder {
		if 100*float64(p.num)/float64(p.den) == pct {
			return xs[rank(len(xs), p.num, p.den)-1]
		}
	}
	panic(fmt.Sprintf("bench: percentile %v is not on the ladder", pct))
}

// median returns the middle value of xs (sorting it in place), averaging
// the two middle values of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the acceptance check uses, so compare reads spreads the way
// the check does. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// overWindows groups vals by their window index in win and returns the
// median over the windows of stat applied to each window's values (vals
// itself is left unsorted). The reference machine's speed drifts in
// spells of a few seconds; a spell then moves one window rather than the
// run's result.
func overWindows(vals []float64, win []int, stat func([]float64) float64) float64 {
	var ws [][]float64
	for i, v := range vals {
		for len(ws) <= win[i] {
			ws = append(ws, nil)
		}
		ws[win[i]] = append(ws[win[i]], v)
	}
	per := make([]float64, 0, len(ws))
	for _, w := range ws {
		if len(w) > 0 {
			per = append(per, stat(w))
		}
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mean returns the mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
