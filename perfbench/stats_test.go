package main

import (
	"math"
	"testing"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 500, false},
		{19, 500, false}, // the median of 19 has 9 samples beyond it
		{20, 500, true},
		{39, 500, true},
		{40, 750, true},
		{99, 750, true},
		{100, 900, true},
		{199, 900, true},
		{200, 950, true},
		{999, 950, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
		{1000000, 999, true},
	} {
		got, ok := highestTail(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestTail(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(got, tc.n) < minBeyond {
			t.Errorf("highestTail(%d) = %s has only %d samples beyond", tc.n, pname(got), beyond(got, tc.n))
		}
	}
}

func TestTailForFallsBack(t *testing.T) {
	if got := tailFor(900, 500); got != 900 {
		t.Errorf("tailFor(p90, 500) = %s, want p90", pname(got))
	}
	if got := tailFor(990, 500); got != 950 {
		t.Errorf("tailFor(p99, 500) = %s, want p95", pname(got))
	}
	if got := tailFor(900, 50); got != 750 {
		t.Errorf("tailFor(p90, 50) = %s, want p75", pname(got))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{{500, 50}, {900, 90}, {990, 99}, {999, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("%s = %v, want %v", pname(tc.p), got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one = %v", got)
	}
}

func TestPname(t *testing.T) {
	for p, want := range map[int]string{500: "p50", 990: "p99", 999: "p99.9", 750: "p75"} {
		if got := pname(p); got != want {
			t.Errorf("pname(%d) = %q, want %q", p, got, want)
		}
	}
}

func TestSplitmixStreams(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := int64(-3); i < 100; i++ {
			v := splitmix(seed, i)
			if v < 0 || seen[v] {
				t.Fatalf("splitmix(%d, %d) = %d: negative or repeated", seed, i, v)
			}
			seen[v] = true
		}
	}
	if splitmix(7, 3) != splitmix(7, 3) {
		t.Error("splitmix is not a function of its arguments")
	}
}
