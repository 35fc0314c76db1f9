package workload

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/jsas"
	"repro/internal/progress"
	"repro/internal/testbed"
)

// TestRunTelemetryDoesNotPerturbResult: a tracked longevity run must
// produce exactly the untracked result.
func TestRunTelemetryDoesNotPerturbResult(t *testing.T) {
	t.Parallel()
	base := RunOptions{
		Config:          jsas.Config1,
		Params:          jsas.DefaultParams(),
		Profile:         Marketplace(),
		Duration:        48 * time.Hour,
		Seed:            5,
		OrganicFailures: true,
	}
	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	tracked := base
	tracked.Progress = progress.New(ProgressChunks(base.Duration), progress.WithUnit("chunks"))
	tracked.TimeSeries = testbed.NewTimeSeries(time.Hour, 0)
	got, err := Run(context.Background(), tracked)
	if err != nil {
		t.Fatalf("tracked run: %v", err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("telemetry changed the longevity result")
	}
	if n := tracked.Progress.Completed(); n != ProgressChunks(base.Duration) {
		t.Fatalf("tracker counted %d chunks, want %d", n, ProgressChunks(base.Duration))
	}
	// The series covers the full horizon.
	var total time.Duration
	for _, w := range tracked.TimeSeries.Windows() {
		total += w.Up + w.Down
	}
	ev := tracked.TimeSeries.Evicted()
	if total+ev.Up+ev.Down != base.Duration {
		t.Fatalf("series covers %s, want %s", total+ev.Up+ev.Down, base.Duration)
	}
}

// TestProgressChunksMatchesLoop: ProgressChunks must predict the exact
// Done count for awkward durations (non-divisible, tiny).
func TestProgressChunksMatchesLoop(t *testing.T) {
	t.Parallel()
	for _, d := range []time.Duration{
		7 * 24 * time.Hour,
		100 * time.Nanosecond, // below runChunks: single chunk
		96 * time.Hour,
		97*time.Hour + 13*time.Minute + 7*time.Nanosecond,
	} {
		tr := progress.New(0)
		_, err := Run(context.Background(), RunOptions{
			Config:   jsas.Config1,
			Params:   jsas.DefaultParams(),
			Profile:  Marketplace(),
			Duration: d,
			Seed:     1,
			Progress: tr,
		})
		if err != nil {
			t.Fatalf("duration %v: %v", d, err)
		}
		if got, want := tr.Completed(), ProgressChunks(d); got != want {
			t.Fatalf("duration %v: counted %d chunks, ProgressChunks says %d", d, got, want)
		}
	}
}

// TestSeriesTimeSeriesDeterministicAcrossParallelism: the merged series
// must be byte-identical at any Parallelism (merge in seed order).
func TestSeriesTimeSeriesDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	render := func(parallelism int) []byte {
		ts := testbed.NewTimeSeries(6*time.Hour, 0)
		opts := SeriesOptions{
			Run: RunOptions{
				Config:          jsas.Config1,
				Params:          jsas.DefaultParams(),
				Profile:         Marketplace(),
				Duration:        36 * time.Hour,
				Seed:            9,
				OrganicFailures: true,
				TimeSeries:      ts,
			},
			Runs:        3,
			Parallelism: parallelism,
		}
		if _, err := RunSeriesWith(context.Background(), opts); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, p := range []int{2, 3} {
		if got := render(p); !bytes.Equal(serial, got) {
			t.Fatalf("parallelism %d produced a different time series", p)
		}
	}
}

// TestSeriesProgressObservesAvailability: the series feeds each run's
// availability into the shared tracker's running statistic.
func TestSeriesProgressObservesAvailability(t *testing.T) {
	t.Parallel()
	tr := progress.New(0, progress.WithStat("availability"))
	res, err := RunSeriesWith(context.Background(), SeriesOptions{
		Run: RunOptions{
			Config:   jsas.Config1,
			Params:   jsas.DefaultParams(),
			Profile:  Marketplace(),
			Duration: 24 * time.Hour,
			Seed:     2,
			Progress: tr,
		},
		Runs:        3,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatalf("RunSeriesWith: %v", err)
	}
	snap := tr.Snapshot()
	if snap.StatN != 3 {
		t.Fatalf("observed %d availabilities, want 3", snap.StatN)
	}
	var mean float64
	for _, r := range res.Runs {
		mean += r.Availability
	}
	mean /= float64(len(res.Runs))
	if math.Abs(snap.StatMean-mean) > 1e-12 {
		t.Fatalf("running mean availability %v != pooled %v", snap.StatMean, mean)
	}
}
