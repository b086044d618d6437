package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 24, 168, 258, 516, 2720} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		v, pct, ok := tailPercentile(xs, 10)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want exactly 10", n, beyond, v)
		}
		if want := 100 * float64(n-10) / float64(n); math.Abs(pct-want) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	// 516 samples (two paper campaigns) give the 98.06th percentile: the
	// 99th would leave only five beyond.
	xs := make([]float64, 516)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, pct, _ := tailPercentile(xs, 10); pct < 98 || pct >= 99 {
		t.Errorf("516 samples: percentile %v, want 98.06", pct)
	}
}

func TestTailPercentileNeedsElevenSamples(t *testing.T) {
	if _, _, ok := tailPercentile(make([]float64, 10), 10); ok {
		t.Error("10 samples cannot have 10 beyond any percentile")
	}
	if v, pct, ok := tailPercentile([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}, 10); !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("11 samples: got %v at p%v ok=%v, want the minimum at p9.09", v, pct, ok)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
