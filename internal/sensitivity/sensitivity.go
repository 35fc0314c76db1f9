// Package sensitivity implements RAScad-style parametric analysis: sweep a
// single model parameter across a range and record the availability
// measures at each point (the paper's Figures 5 and 6).
package sensitivity

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/pool"
	"repro/internal/progress"
	"repro/internal/trace"
)

// ErrBadSweep is reported for invalid sweep specifications.
var ErrBadSweep = errors.New("sensitivity: invalid sweep")

// Point is one sample of a parametric sweep.
type Point struct {
	// Value is the swept parameter value.
	Value float64
	// Availability and YearlyDowntimeMinutes are the system measures at
	// this parameter value.
	Availability          float64
	YearlyDowntimeMinutes float64
}

// Solver evaluates the model at one parameter value and returns
// (availability, yearly downtime minutes).
type Solver func(value float64) (availability, downtimeMinutes float64, err error)

// SweepOptions tunes how a sweep is driven. The zero value is a serial
// sweep.
type SweepOptions struct {
	// Parallelism is the number of worker goroutines evaluating sweep
	// points (default 1). The results are identical at any parallelism:
	// points are written by index, and on failure the error reported is the
	// one from the lowest-indexed failing point. The solver must be safe
	// for concurrent use (the jsas solvers are).
	Parallelism int
	// Progress, if set, receives one Done() per attempted sweep point (via
	// the pool's OnTaskDone hook). nil (the default) costs nothing.
	Progress *progress.Tracker
}

// Sweep evaluates solve at steps+1 evenly spaced values across [from, to]
// (inclusive). steps must be ≥ 1 and from < to.
func Sweep(from, to float64, steps int, solve Solver) ([]Point, error) {
	return SweepWith(context.Background(), from, to, steps, solve, SweepOptions{})
}

// SweepWith is Sweep with driver options (parallel evaluation) and
// cancellation: a canceled ctx stops dispatching sweep points within one
// pool-task granularity and the sweep returns ctx.Err() (no points — a
// sweep with holes would silently skew crossing and delta summaries).
// A span in ctx gets one sensitivity.sweep child; points record no spans,
// and an untraced ctx records nothing.
func SweepWith(ctx context.Context, from, to float64, steps int, solve Solver, opts SweepOptions) ([]Point, error) {
	if solve == nil {
		return nil, fmt.Errorf("nil solver: %w", ErrBadSweep)
	}
	if steps < 1 {
		return nil, fmt.Errorf("steps = %d, want ≥ 1: %w", steps, ErrBadSweep)
	}
	if from >= to {
		return nil, fmt.Errorf("empty range [%g, %g]: %w", from, to, ErrBadSweep)
	}
	n := steps + 1
	parallelism := opts.Parallelism
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > n {
		parallelism = n
	}
	span := trace.Child(ctx, "sensitivity.sweep", 3)

	values := make([]float64, n)
	for i := range values {
		values[i] = from + (to-from)*float64(i)/float64(steps)
	}
	points := make([]Point, n)

	// The shared deterministic index-keyed pool (internal/pool) writes
	// points by index and, on failure, drains promptly while reporting the
	// error from the lowest-indexed failing point among those attempted —
	// independent of goroutine scheduling.
	popts := pool.Options{Workers: parallelism}
	if opts.Progress != nil {
		popts.OnTaskDone = func(int) { opts.Progress.Done() }
	}
	err := pool.Run(ctx, n, popts, func(_, i int) error {
		v := values[i]
		a, d, err := solve(v)
		if err != nil {
			return fmt.Errorf("sweep at %g: %w", v, err)
		}
		points[i] = Point{Value: v, Availability: a, YearlyDowntimeMinutes: d}
		return nil
	})
	if span != nil {
		span.Attr(
			trace.Int("steps", int64(steps)),
			trace.Int("parallelism", int64(parallelism)),
			trace.Bool("error", err != nil))
		span.End()
	}
	if err != nil {
		return nil, err
	}
	return points, nil
}

// CrossingBelow returns the first swept value at which availability falls
// below the threshold, interpolating linearly between bracketing points.
// ok is false if availability never crosses.
func CrossingBelow(points []Point, threshold float64) (value float64, ok bool) {
	for i, p := range points {
		if p.Availability < threshold {
			if i == 0 {
				return p.Value, true
			}
			prev := points[i-1]
			da := prev.Availability - p.Availability
			if da <= 0 {
				return p.Value, true
			}
			frac := (prev.Availability - threshold) / da
			return prev.Value + frac*(p.Value-prev.Value), true
		}
	}
	return 0, false
}

// MaxDelta returns the largest availability difference across the sweep —
// a summary of how sensitive the measure is to the parameter.
func MaxDelta(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	lo, hi := points[0].Availability, points[0].Availability
	for _, p := range points[1:] {
		if p.Availability < lo {
			lo = p.Availability
		}
		if p.Availability > hi {
			hi = p.Availability
		}
	}
	return hi - lo
}
