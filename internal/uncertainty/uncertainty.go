// Package uncertainty implements RAScad's Monte-Carlo uncertainty
// analysis: model parameters that cannot be measured accurately (or vary
// across customer sites) are sampled from user-defined ranges, the model
// is solved per sample, and the resulting distribution of yearly downtime
// is summarized with means and percentile confidence intervals (the
// paper's Figures 7 and 8).
package uncertainty

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/progress"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ErrBadAnalysis is reported for invalid analysis specifications.
var ErrBadAnalysis = errors.New("uncertainty: invalid analysis")

// Range is a closed interval a parameter is sampled from.
type Range struct {
	Name      string
	Low, High float64
}

// Validate checks the range: a name and finite, ordered bounds. Non-finite
// bounds are rejected explicitly — NaN compares false against everything,
// so an ordering check alone would accept NaN bounds and poison every
// sampled assignment.
func (r Range) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("unnamed range: %w", ErrBadAnalysis)
	}
	if math.IsNaN(r.Low) || math.IsInf(r.Low, 0) || math.IsNaN(r.High) || math.IsInf(r.High, 0) {
		return fmt.Errorf("range %s: non-finite bounds [%g, %g]: %w", r.Name, r.Low, r.High, ErrBadAnalysis)
	}
	if !(r.Low <= r.High) {
		return fmt.Errorf("range %s: low %g > high %g: %w", r.Name, r.Low, r.High, ErrBadAnalysis)
	}
	return nil
}

// Sampler draws parameter vectors from the ranges.
type Sampler int

// Available samplers.
const (
	// SamplerUniform draws each parameter independently and uniformly —
	// the sampling RAScad's uncertainty analysis performs.
	SamplerUniform Sampler = iota + 1
	// SamplerLatinHypercube stratifies each dimension into N bins and
	// permutes them, giving lower estimator variance at equal cost.
	SamplerLatinHypercube
)

func (s Sampler) String() string {
	switch s {
	case SamplerUniform:
		return "uniform"
	case SamplerLatinHypercube:
		return "latin-hypercube"
	default:
		return fmt.Sprintf("sampler(%d)", int(s))
	}
}

// Solver evaluates the model for one sampled parameter assignment and
// returns the yearly downtime in minutes.
type Solver func(assignment map[string]float64) (downtimeMinutes float64, err error)

// Options configures an analysis run.
type Options struct {
	// Samples is the number of Monte-Carlo samples (paper: 1000).
	Samples int
	// Seed makes the run reproducible.
	Seed int64
	// Sampler selects the sampling scheme; defaults to SamplerUniform.
	Sampler Sampler
	// Confidences lists the central CI masses to report
	// (defaults to 0.80 and 0.90, as in the paper).
	Confidences []float64
	// Parallelism is the number of worker goroutines solving samples
	// (default 1). Results are identical regardless of parallelism: the
	// assignments are drawn up front and outputs keyed by sample index.
	// The solver must be safe for concurrent use (the jsas solvers are).
	Parallelism int
	// Progress, if set, receives one Done() per attempted sample (via the
	// pool's OnTaskDone hook) and an Observe(downtime) per successful
	// solve, so status lines can show the running mean yearly downtime
	// with a CI half-width. nil (the default) costs nothing.
	Progress *progress.Tracker
}

// Sample is one evaluated parameter snapshot.
type Sample struct {
	Assignment map[string]float64
	// DowntimeMinutes is the solved yearly downtime.
	DowntimeMinutes float64
}

// Result summarizes an uncertainty analysis.
type Result struct {
	Samples []Sample
	// Downtimes is the raw downtime vector (minutes/year), in sample order.
	Downtimes []float64
	// Summary holds descriptive statistics of Downtimes.
	Summary stats.Summary
	// CIs maps confidence mass → central percentile interval.
	CIs map[float64]stats.Interval
	// Diag records how the run performed (latency, utilization) for
	// --stats reports; it does not affect the statistical results.
	Diag RunDiagnostics
}

// RunDiagnostics reports the runtime behavior of one analysis.
type RunDiagnostics struct {
	// SamplesSolved is the number of per-sample solves that succeeded.
	// Failed solves are counted in SamplesFailed, not here: mixing them in
	// would inflate the apparent throughput of a failing run and bias the
	// latency summary with error-path timings.
	SamplesSolved int
	// SamplesFailed is the number of per-sample solves that returned an
	// error (0 on a clean run).
	SamplesFailed int
	// Parallelism is the worker count actually used.
	Parallelism int
	// Wall is the end-to-end solve-phase duration.
	Wall time.Duration
	// SolveTotal is the summed duration of all solve attempts, successes
	// and failures alike — the pool's total busy time, which is what
	// Utilization is computed from. With Parallelism 1 it approximates Wall.
	SolveTotal time.Duration
	// MinSolve/MeanSolve/MaxSolve summarize the solve latency of
	// successful samples only.
	MinSolve, MeanSolve, MaxSolve time.Duration
	// Utilization is SolveTotal / (Wall × Parallelism): the fraction of
	// worker-pool capacity spent inside the solver (1 = perfectly busy).
	Utilization float64
}

// String renders a one-line summary for CLI --stats reports.
func (d RunDiagnostics) String() string {
	s := fmt.Sprintf(
		"samples=%d workers=%d wall=%v solve-latency(min/mean/max)=%v/%v/%v utilization=%.1f%%",
		d.SamplesSolved, d.Parallelism, d.Wall.Round(time.Microsecond),
		d.MinSolve.Round(time.Microsecond), d.MeanSolve.Round(time.Microsecond),
		d.MaxSolve.Round(time.Microsecond), d.Utilization*100)
	if d.SamplesFailed > 0 {
		s += fmt.Sprintf(" failed=%d", d.SamplesFailed)
	}
	return s
}

// Monte-Carlo metrics, reported to the default obs registry.
var (
	obsRuns          = obs.C("uncertainty_runs_total", "completed uncertainty analyses")
	obsSamplesSolved = obs.C("uncertainty_samples_solved_total", "per-sample model solves that succeeded")
	obsSampleFailed  = obs.C("uncertainty_sample_failures_total", "per-sample model solves that returned an error")
	obsSampleSeconds = obs.H("uncertainty_sample_solve_seconds", "per-sample solve latency", obs.DurationBuckets)
	obsUtilization   = obs.G("uncertainty_worker_utilization", "solve-time share of worker-pool capacity in the most recent run")
)

// FractionBelow returns the fraction of sampled systems with yearly
// downtime strictly below m minutes (the paper: "over 80% of sampled
// systems have yearly downtime less than 5.25 minutes").
func (r *Result) FractionBelow(m float64) float64 {
	return stats.FractionBelow(r.Downtimes, m)
}

// Run performs the analysis: draw Samples assignments from ranges, solve
// each, and summarize. It is RunCtx with a background context.
func Run(ranges []Range, solve Solver, opts Options) (*Result, error) {
	return RunCtx(context.Background(), ranges, solve, opts)
}

// RunCtx is Run with cancellation: a canceled ctx stops dispatching
// samples within one pool-task granularity and the analysis returns
// ctx.Err() (no Result — a partially solved downtime vector would bias
// every summary statistic, so cancellation discards the run rather than
// reporting misleading numbers). A span in ctx gets one uncertainty.run
// child covering the solves; samples record no spans (their latency is
// in uncertainty_sample_solve_seconds and Result.Diag), and an untraced
// ctx records nothing.
func RunCtx(ctx context.Context, ranges []Range, solve Solver, opts Options) (*Result, error) {
	if solve == nil {
		return nil, fmt.Errorf("nil solver: %w", ErrBadAnalysis)
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("no parameter ranges: %w", ErrBadAnalysis)
	}
	seen := make(map[string]bool, len(ranges))
	for _, r := range ranges {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate range %q: %w", r.Name, ErrBadAnalysis)
		}
		seen[r.Name] = true
	}
	if opts.Samples <= 0 {
		opts.Samples = 1000
	}
	if opts.Sampler == 0 {
		opts.Sampler = SamplerUniform
	}
	if len(opts.Confidences) == 0 {
		opts.Confidences = []float64{0.80, 0.90}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	unit, err := drawUnitSamples(rng, opts.Sampler, len(ranges), opts.Samples)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Samples:   make([]Sample, opts.Samples),
		Downtimes: make([]float64, opts.Samples),
		CIs:       make(map[float64]stats.Interval, len(opts.Confidences)),
	}
	for i := 0; i < opts.Samples; i++ {
		assignment := make(map[string]float64, len(ranges))
		for j, r := range ranges {
			assignment[r.Name] = r.Low + (r.High-r.Low)*unit[i][j]
		}
		res.Samples[i] = Sample{Assignment: assignment}
	}
	if err := solveAll(ctx, res, solve, opts.Parallelism, opts.Progress); err != nil {
		return nil, err
	}
	var sorted stats.Sorted
	res.Summary, sorted = stats.Describe(res.Downtimes)
	for _, c := range opts.Confidences {
		ci, err := sorted.CI(c)
		if err != nil {
			return nil, fmt.Errorf("confidence %g: %w", c, err)
		}
		res.CIs[c] = ci
	}
	obsRuns.Inc()
	return res, nil
}

// solveAll evaluates every pre-drawn sample across the shared
// deterministic index-keyed worker pool (one worker for parallelism ≤ 1).
// Outputs are written by index, so the result is identical at any
// parallelism level. On failure the whole pool stops promptly and the
// error returned is the one from the lowest-indexed failing sample among
// those attempted, so the reported error does not depend on goroutine
// scheduling (see internal/pool).
func solveAll(ctx context.Context, res *Result, solve Solver, parallelism int, tracker *progress.Tracker) error {
	n := len(res.Samples)
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > n {
		parallelism = n
	}
	runSpan := trace.Child(ctx, "uncertainty.run", 4)
	start := time.Now()

	// Latency bookkeeping: per-worker locals merged at the end (a pool
	// worker never runs two samples concurrently, so the slots are
	// race-free). Busy time (SolveTotal) covers every attempt — that is
	// the pool utilization — while the min/mean/max latency summary covers
	// successes only, so a fast-failing error path cannot masquerade as
	// good solve latency.
	var (
		okCount   atomic.Int64
		failCount atomic.Int64
		busy      = make([]time.Duration, parallelism)
		okTime    = make([]time.Duration, parallelism)
		minTime   = make([]time.Duration, parallelism)
		maxTime   = make([]time.Duration, parallelism)
	)
	for w := range minTime {
		minTime[w] = math.MaxInt64
	}

	popts := pool.Options{Workers: parallelism}
	if tracker != nil {
		popts.OnTaskDone = func(int) { tracker.Done() }
	}
	poolErr := pool.Run(ctx, n, popts, func(worker, i int) error {
		sampleTimer := obs.StartTimer(obsSampleSeconds)
		d, err := solve(res.Samples[i].Assignment)
		dt := sampleTimer.Stop()
		busy[worker] += dt
		if err != nil {
			failCount.Add(1)
			obsSampleFailed.Inc()
			return fmt.Errorf("sample %d: %w", i, err)
		}
		okCount.Add(1)
		obsSamplesSolved.Inc()
		okTime[worker] += dt
		if dt < minTime[worker] {
			minTime[worker] = dt
		}
		if dt > maxTime[worker] {
			maxTime[worker] = dt
		}
		res.Samples[i].DowntimeMinutes = d
		res.Downtimes[i] = d
		tracker.Observe(d) // nil-safe no-op when untracked
		return nil
	})

	var (
		aggBusy time.Duration
		aggOK   time.Duration
		aggMin  time.Duration = math.MaxInt64
		aggMax  time.Duration
	)
	for w := 0; w < parallelism; w++ {
		aggBusy += busy[w]
		aggOK += okTime[w]
		if minTime[w] < aggMin {
			aggMin = minTime[w]
		}
		if maxTime[w] > aggMax {
			aggMax = maxTime[w]
		}
	}

	wall := time.Since(start)
	if runSpan != nil {
		runSpan.Attr(
			trace.Int("samples", int64(n)),
			trace.Int("parallelism", int64(parallelism)),
			trace.Int("solved", okCount.Load()),
			trace.Int("failed", failCount.Load()))
		runSpan.End()
	}
	solved := int(okCount.Load())
	diag := RunDiagnostics{
		SamplesSolved: solved,
		SamplesFailed: int(failCount.Load()),
		Parallelism:   parallelism,
		Wall:          wall,
		SolveTotal:    aggBusy,
		MaxSolve:      aggMax,
	}
	if solved > 0 {
		diag.MinSolve = aggMin
		diag.MeanSolve = aggOK / time.Duration(solved)
	}
	if wall > 0 && parallelism > 0 {
		diag.Utilization = float64(aggBusy) / (float64(wall) * float64(parallelism))
	}
	res.Diag = diag
	obsUtilization.Set(diag.Utilization)

	return poolErr
}

// drawUnitSamples produces samples×dims values in [0,1): one row per
// sample, all rows cut from one backing array.
func drawUnitSamples(rng *rand.Rand, s Sampler, dims, samples int) ([][]float64, error) {
	out := make([][]float64, samples)
	flat := make([]float64, samples*dims)
	for i := range out {
		out[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
	}
	switch s {
	case SamplerUniform:
		for i := 0; i < samples; i++ {
			for j := 0; j < dims; j++ {
				out[i][j] = rng.Float64()
			}
		}
	case SamplerLatinHypercube:
		for j := 0; j < dims; j++ {
			perm := rng.Perm(samples)
			for i := 0; i < samples; i++ {
				out[i][j] = (float64(perm[i]) + rng.Float64()) / float64(samples)
			}
		}
	default:
		return nil, fmt.Errorf("unknown sampler %v: %w", s, ErrBadAnalysis)
	}
	return out, nil
}

// SortedConfidences returns the result's CI keys in ascending order —
// convenient for deterministic report rendering.
func (r *Result) SortedConfidences() []float64 {
	out := make([]float64, 0, len(r.CIs))
	for c := range r.CIs {
		out = append(out, c)
	}
	sort.Float64s(out)
	return out
}

// Correlations returns the Spearman rank correlation between each sampled
// parameter and the downtime outcome — a global sensitivity measure drawn
// from the Monte-Carlo sample itself (no extra solves), complementing the
// local one-at-a-time importance analysis.
func (r *Result) Correlations() map[string]float64 {
	if len(r.Samples) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for name := range r.Samples[0].Assignment {
		xs := make([]float64, len(r.Samples))
		for i, s := range r.Samples {
			xs[i] = s.Assignment[name]
		}
		out[name] = stats.SpearmanRank(xs, r.Downtimes)
	}
	return out
}
