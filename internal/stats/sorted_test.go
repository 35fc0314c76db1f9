package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestSortedMatchesPercentile: the median Describe reads, the intervals
// Sorted.CI and PercentileCI give, and Sorted.Percentile all equal
// Percentile bit for bit, on random samples full of ties, and Describe's
// other fields equal Summarize's.
func TestSortedMatchesPercentile(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(24))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			// A few distinct values, so most order statistics tie.
			xs[i] = float64(rng.Intn(1+n/10)) * (0.1 + rng.Float64()*float64(rng.Intn(2)))
		}
		orig := append([]float64(nil), xs...)
		sum, sorted := Describe(xs)
		for i := range xs {
			if !same(xs[i], orig[i]) {
				t.Fatalf("trial %d: Describe modified its input", trial)
			}
		}
		if ref, med := Summarize(xs), Percentile(xs, 50); sum != ref || !same(sum.Median, med) {
			t.Fatalf("trial %d: Describe %+v, Summarize %+v, Percentile(50) %v", trial, sum, ref, med)
		}
		for _, p := range []float64{0, 1, 5, 10, 25, 33.3, 50, 75, 90, 95, 99, 100, rng.Float64() * 100} {
			if got, want := sorted.Percentile(p), Percentile(xs, p); !same(got, want) {
				t.Fatalf("trial %d: Sorted.Percentile(%g) = %v, Percentile %v", trial, p, got, want)
			}
		}
		for _, c := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
			tail := (1 - c) / 2 * 100
			want := Interval{Low: Percentile(xs, tail), High: Percentile(xs, 100-tail)}
			got, err := sorted.CI(c)
			if err != nil || !same(got.Low, want.Low) || !same(got.High, want.High) {
				t.Fatalf("trial %d: Sorted.CI(%g) = %+v, %v; want %+v", trial, c, got, err, want)
			}
			got, err = PercentileCI(xs, c)
			if err != nil || !same(got.Low, want.Low) || !same(got.High, want.High) {
				t.Fatalf("trial %d: PercentileCI(%g) = %+v, %v; want %+v", trial, c, got, err, want)
			}
		}
	}
	if _, err := Sorted(nil).CI(0.9); err == nil {
		t.Error("CI of an empty sample did not fail")
	}
	if _, err := SortedCopy([]float64{1}).CI(1); err == nil {
		t.Error("CI at confidence 1 did not fail")
	}
}
