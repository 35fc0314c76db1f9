package workload

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jsas"
	"repro/internal/trace"
)

// TestRunSeriesWithDeterministicAcrossParallelism: the pooled series
// result and merged trace depend only on the options, not worker count.
func TestRunSeriesWithDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	run := func(parallelism int) (*SeriesResult, []trace.Span) {
		rec := trace.New(trace.Config{Capacity: trace.Unbounded})
		series, err := RunSeriesWith(context.Background(), SeriesOptions{
			Run: RunOptions{
				Config:          jsas.Config1,
				Params:          jsas.DefaultParams(),
				Profile:         Marketplace(),
				Duration:        24 * time.Hour,
				Seed:            40,
				OrganicFailures: true,
				Trace:           rec,
			},
			Runs:        4,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("RunSeriesWith(parallelism=%d): %v", parallelism, err)
		}
		return series, rec.Spans()
	}
	s1, spans1 := run(1)
	for _, par := range []int{0, 2, 4} {
		sN, spansN := run(par)
		if !reflect.DeepEqual(s1, sN) {
			t.Fatalf("series result differs between parallelism 1 and %d", par)
		}
		if !reflect.DeepEqual(spans1, spansN) {
			t.Fatalf("merged trace differs between parallelism 1 and %d", par)
		}
	}
	// Per-run streams are tagged: 4 longevity roots, one per replica index.
	roots := map[int64]bool{}
	for _, sp := range spans1 {
		if sp.Name != trace.SpanLongevity {
			continue
		}
		a, ok := sp.Attr(trace.AttrReplica)
		if !ok {
			t.Fatalf("longevity root %d missing replica attr", sp.ID)
		}
		if !strings.HasPrefix(sp.AttrString(trace.AttrTrack), "r") {
			t.Errorf("longevity root track %q not replica-prefixed", sp.AttrString(trace.AttrTrack))
		}
		roots[a.Int] = true
	}
	if len(roots) != 4 {
		t.Fatalf("replica-tagged longevity roots = %d, want 4", len(roots))
	}
}

// TestRunSeriesWithPartialFailure: failing runs surface as a joined error
// without discarding the series result structure.
func TestRunSeriesWithPartialFailure(t *testing.T) {
	t.Parallel()
	series, err := RunSeriesWith(context.Background(), SeriesOptions{
		Run:         RunOptions{Profile: Profile{}}, // invalid: every run fails
		Runs:        3,
		Parallelism: 2,
	})
	if err == nil {
		t.Fatal("expected run failures")
	}
	if !errors.Is(err, ErrBadRun) {
		t.Fatalf("err = %v, want ErrBadRun in chain", err)
	}
	if series == nil {
		t.Fatal("partial series result discarded")
	}
	if len(series.Runs) != 0 || series.TotalExposure != 0 {
		t.Errorf("failed series pooled data: %+v", series)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("err %T is not a joined error", err)
	}
	if got := len(joined.Unwrap()); got != 3 {
		t.Errorf("joined errors = %d, want 3", got)
	}
	for i, e := range joined.Unwrap() {
		want := []string{"run 1:", "run 2:", "run 3:"}[i]
		if !strings.Contains(e.Error(), want) {
			t.Errorf("error %d = %q, want it to name %q", i, e, want)
		}
	}
}
