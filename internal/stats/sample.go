package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64 // sample standard deviation (n−1 denominator)
	Min, Max float64
	Median   float64
}

// Summarize computes descriptive statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	s, _ := Describe(xs)
	return s
}

// Describe is Summarize that also returns the ascending copy of xs its
// median was read from, so a caller can take further percentiles and
// intervals without sorting again. Mean and StdDev sum xs in its own
// order.
func Describe(xs []float64) (Summary, Sorted) {
	n := len(xs)
	if n == 0 {
		return Summary{}, nil
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(n-1))
	}
	sorted := SortedCopy(xs)
	s.Median = sorted.Percentile(50)
	return s, sorted
}

// Sorted is a sample in ascending order. Its percentiles read order
// statistics directly, with no copy or sort per call.
type Sorted []float64

// SortedCopy returns an ascending copy of xs; xs is not modified.
func SortedCopy(xs []float64) Sorted {
	sorted := make(Sorted, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// Percentile returns the p-th percentile (p ∈ [0, 100]) of xs using linear
// interpolation between order statistics. The input is not modified.
// An empty sample returns NaN.
func Percentile(xs []float64, p float64) float64 {
	return SortedCopy(xs).Percentile(p)
}

// Percentile is the package-level Percentile of the sorted sample.
func (sorted Sorted) Percentile(p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Interval is a two-sided interval.
type Interval struct {
	Low, High float64
}

// PercentileCI returns the central confidence interval covering the given
// confidence mass (e.g. 0.80 → the (10th, 90th) percentile interval). This
// is the empirical interval the paper reports for its uncertainty analysis.
func PercentileCI(xs []float64, confidence float64) (Interval, error) {
	return SortedCopy(xs).CI(confidence)
}

// CI is PercentileCI of the sorted sample.
func (sorted Sorted) CI(confidence float64) (Interval, error) {
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("PercentileCI: confidence %g: %w", confidence, ErrDomain)
	}
	if len(sorted) == 0 {
		return Interval{}, fmt.Errorf("PercentileCI: empty sample: %w", ErrDomain)
	}
	tail := (1 - confidence) / 2 * 100
	return Interval{
		Low:  sorted.Percentile(tail),
		High: sorted.Percentile(100 - tail),
	}, nil
}

// FractionBelow returns the fraction of the sample strictly below x.
func FractionBelow(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	count := 0
	for _, v := range xs {
		if v < x {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// HistogramBin is one bin of a histogram.
type HistogramBin struct {
	Low, High float64
	Count     int
}

// Histogram bins xs into n equal-width bins spanning [min, max]. Values
// equal to max land in the last bin.
func Histogram(xs []float64, n int) []HistogramBin {
	if len(xs) == 0 || n <= 0 {
		return nil
	}
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	if mx == mn {
		return []HistogramBin{{Low: mn, High: mx, Count: len(xs)}}
	}
	bins := make([]HistogramBin, n)
	width := (mx - mn) / float64(n)
	for i := range bins {
		bins[i].Low = mn + float64(i)*width
		bins[i].High = bins[i].Low + width
	}
	for _, x := range xs {
		idx := int((x - mn) / width)
		if idx >= n {
			idx = n - 1
		}
		bins[idx].Count++
	}
	return bins
}

// SpearmanRank returns the Spearman rank correlation coefficient between
// paired samples xs and ys (−1..1, 0 for independence). Ties receive
// average ranks. Returns NaN for fewer than 2 pairs or mismatched lengths.
func SpearmanRank(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return math.NaN()
	}
	rx := ranks(xs)
	ry := ranks(ys)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var num, dx, dy float64
	for i := 0; i < n; i++ {
		a := rx[i] - mx
		b := ry[i] - my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
