package workload

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/estimate"
	"repro/internal/pool"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// SeriesResult aggregates a campaign of repeated longevity runs — the
// paper performed "multiple 7-day duration runs" and pooled the exposure
// when bounding the failure rate.
type SeriesResult struct {
	// Runs holds the completed runs in series order. When some runs failed
	// (see the joined error), their slots are simply absent.
	Runs []*Result
	// TotalExposure is the pooled instance exposure across runs.
	TotalExposure time.Duration
	// TotalFailures is the pooled AS failure count.
	TotalFailures int
	// TotalRequests is the pooled request count.
	TotalRequests float64
	// PooledBounds are the Equation (2) bounds over the pooled data; the
	// pooled bound is tighter than any single run's.
	PooledBounds []estimate.FailureRateBound
}

// SeriesOptions configures a longevity series.
type SeriesOptions struct {
	// Run is the per-run configuration; run i uses seed Run.Seed + i, the
	// series' long-standing convention.
	Run RunOptions
	// Runs is the number of independent longevity runs (paper: multiple
	// 7-day runs).
	Runs int
	// Parallelism caps how many runs execute concurrently (0 = one worker
	// per run). The series result is identical for every value: runs are
	// pooled in series order, never in completion order.
	Parallelism int
}

// RunSeriesWith executes a longevity series, optionally running the
// independent runs concurrently. Each run gets a fresh cluster; pooling in
// series (seed) order makes the result independent of Parallelism.
//
// When opts.Run.Trace is set and Runs > 1, each run records into its own
// recorder and the streams are merged into opts.Run.Trace in series order,
// tagged with trace.AttrReplica (a single run records directly, exactly as
// Run does). A run that fails does not abort the series: completed runs
// are still pooled, and the failures are returned errors.Join-ed in series
// order alongside the partial result.
//
// A canceled ctx stops dispatching new runs and interrupts in-flight ones
// at their next chunk boundary; completed runs are still pooled (the
// partial-series contract), with the interrupted runs' cancellations
// joined into the returned error in series order.
func RunSeriesWith(ctx context.Context, opts SeriesOptions) (*SeriesResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Runs <= 0 {
		return nil, fmt.Errorf("runs = %d, want ≥ 1: %w", opts.Runs, ErrBadRun)
	}
	confidences := opts.Run.Confidences
	if len(confidences) == 0 {
		confidences = []float64{0.95, 0.995}
	}
	results := make([]*Result, opts.Runs)
	errs := make([]error, opts.Runs)
	recs := make([]*trace.Recorder, opts.Runs)
	series := make([]*testbed.TimeSeries, opts.Runs)
	splitTrace := opts.Run.Trace != nil && opts.Runs > 1
	splitTS := opts.Run.TimeSeries != nil && opts.Runs > 1
	popts := pool.Options{Workers: opts.Parallelism, ContinueOnError: true}
	if opts.Run.Progress != nil {
		// Per-run availability feeds the tracker's running statistic; the
		// hook runs on the worker that wrote results[i], so the read is
		// ordered. (Per-chunk Done ticks come from Run itself.)
		popts.OnTaskDone = func(i int) {
			if res := results[i]; res != nil {
				opts.Run.Progress.Observe(res.Availability)
			}
		}
	}
	poolErr := pool.Run(ctx, opts.Runs, popts,
		func(_, i int) error {
			runOpts := opts.Run
			runOpts.Seed = opts.Run.Seed + int64(i)
			if splitTrace {
				recs[i] = trace.New(trace.Config{Capacity: trace.Unbounded})
				runOpts.Trace = recs[i]
			}
			if splitTS {
				// Private per-run recorder (the series merge below runs in
				// seed order, so the merged series never depends on
				// Parallelism).
				series[i] = testbed.NewTimeSeries(opts.Run.TimeSeries.Width(), opts.Run.TimeSeries.Cap())
				runOpts.TimeSeries = series[i]
			}
			res, err := Run(ctx, runOpts)
			if err != nil {
				errs[i] = fmt.Errorf("run %d: %w", i+1, err)
				return errs[i]
			}
			results[i] = res
			return nil
		})
	if splitTrace {
		for i, rc := range recs {
			if rc != nil {
				opts.Run.Trace.Import(trace.TagReplica(rc.Spans(), i))
			}
		}
	}
	if splitTS {
		for _, ts := range series {
			if ts != nil {
				opts.Run.TimeSeries.Merge(ts)
			}
		}
	}
	out := &SeriesResult{}
	for _, res := range results {
		if res == nil {
			continue
		}
		out.Runs = append(out.Runs, res)
		out.TotalExposure += res.InstanceExposure
		out.TotalFailures += res.ASInstanceFailures
		out.TotalRequests += res.RequestsServed
	}
	if out.TotalExposure > 0 {
		for _, conf := range confidences {
			b, err := estimate.FailureRateUpperBound(out.TotalExposure, out.TotalFailures, conf)
			if err != nil {
				return out, fmt.Errorf("pooled bound: %w", err)
			}
			out.PooledBounds = append(out.PooledBounds, b)
		}
	}
	var joined []error
	for _, e := range errs {
		if e != nil {
			joined = append(joined, e)
			if e == poolErr {
				// The pool reports the lowest-indexed run error; it is
				// already in the per-run list.
				poolErr = nil
			}
		}
	}
	if poolErr != nil {
		// Cancellation with no per-run error (runs skipped before starting)
		// must still surface, or a canceled series would read as complete.
		joined = append(joined, fmt.Errorf("workload: series canceled: %w", poolErr))
	}
	return out, errors.Join(joined...)
}
