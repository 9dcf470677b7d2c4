package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes one sample of timings or rates: its size, median,
// quartiles, and the highest percentile that still has at least ten
// samples beyond it (capped at the 99th).
type Summary struct {
	N       int
	P50     float64
	Q1, Q3  float64
	Tail    float64 // value at TailPct
	TailPct float64 // 0 when N is too small for any tail percentile
}

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks (the "type 7" estimator). sorted
// must be in ascending order and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// TailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples strictly beyond it, or 0 if none does.
func TailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// Summarize sorts xs in place and summarizes it.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{P50: math.NaN(), Q1: math.NaN(), Q3: math.NaN(), Tail: math.NaN()}
	}
	sort.Float64s(xs)
	s := Summary{
		N:   len(xs),
		P50: Quantile(xs, 0.5),
		Q1:  Quantile(xs, 0.25),
		Q3:  Quantile(xs, 0.75),
	}
	if p := TailPercentile(len(xs)); p > 0 {
		s.TailPct = p
		s.Tail = Quantile(xs, p/100)
	} else {
		s.Tail = math.NaN()
	}
	return s
}

// String renders the summary for the human-readable report.
func (s Summary) String() string {
	tail := "tail n/a"
	if s.TailPct > 0 {
		tail = fmt.Sprintf("p%g %.4g", s.TailPct, s.Tail)
	}
	return fmt.Sprintf("p50 %.4g (q1 %.4g, q3 %.4g, %s, n=%d)", s.P50, s.Q1, s.Q3, tail, s.N)
}
