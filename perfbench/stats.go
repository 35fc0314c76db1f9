package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two observations and
// repeats no better than a maximum does.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may report, in tenths
// of a percent so the sample arithmetic stays exact.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rankOf is the 1-based nearest rank of the p-th tenth-percentile in n
// sorted samples.
func rankOf(pTenths, n int) int {
	r := (pTenths*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above the p-th tenth-percentile.
func beyond(pTenths, n int) int { return n - rankOf(pTenths, n) }

// highestTail returns the highest percentile on tailLadder (in tenths)
// with at least minBeyond samples beyond it, and false when even the
// median has fewer.
func highestTail(n int) (int, bool) {
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return tailLadder[len(tailLadder)-1], false
}

// tailFor returns want when n samples support it and otherwise the
// highest supported percentile, so a short run degrades to a lower
// percentile instead of reporting a tail resting on a handful of samples.
func tailFor(want, n int) int {
	if beyond(want, n) >= minBeyond {
		return want
	}
	p, _ := highestTail(n)
	return p
}

// percentile returns the nearest-rank p-th tenth-percentile of xs
// (NaN when xs is empty). xs is not modified.
func percentile(xs []float64, pTenths int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(pTenths, len(s))-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 500) }

// pname renders a tenth-percentile as a metric suffix: 990 → "p99",
// 999 → "p99.9".
func pname(pTenths int) string {
	if pTenths%10 == 0 {
		return fmt.Sprintf("p%d", pTenths/10)
	}
	return fmt.Sprintf("p%d.%d", pTenths/10, pTenths%10)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// splitmix mixes a benchmark seed with a stream index into a derived
// seed, so iteration i of a run and replica r of a campaign draw from
// unrelated, reproducible streams.
func splitmix(seed int64, i int64) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// timeIt runs f and returns its wall time.
func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
