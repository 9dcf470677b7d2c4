package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileKnownVectors(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{10, 20}, 0, 10},
		{[]float64{10, 20}, 1, 20},
		{[]float64{0, 10}, 0.99, 9.9},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("Quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Median(xs); got != 3 {
		t.Fatalf("Median = %g, want 3", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("Median reordered its input: %v", xs)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median of nothing should be NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeOneToThousand(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: Summarize must sort
	}
	s := Summarize(xs)
	if s.N != 1000 || !near(s.P50, 500.5) || !near(s.Q1, 250.75) || !near(s.Q3, 750.25) {
		t.Fatalf("Summarize(1..1000) = %+v", s)
	}
	if s.TailPct != 99 || !near(s.Tail, 990.01) {
		t.Fatalf("tail = p%g %g, want p99 990.01", s.TailPct, s.Tail)
	}
}

func TestSummarizeSmallSampleHasNoTail(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.P50 != 2 || s.TailPct != 0 || !math.IsNaN(s.Tail) {
		t.Fatalf("Summarize(3 samples) = %+v", s)
	}
}
