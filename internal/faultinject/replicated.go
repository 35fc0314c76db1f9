package faultinject

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

// ReplicatedOptions configures a campaign sharded across independent
// replica clusters. The paper's rig ran one testbed serially for weeks;
// replication trades hardware (here: goroutines over fresh simulated
// clusters) for wall-clock time without changing the pooled statistics —
// each injection is an independent Bernoulli trial either way, so
// Equation (1) over the pooled (trials, successes) is the same estimator.
type ReplicatedOptions struct {
	Options

	// Replicas is the number of independent replica clusters the
	// Injections are sharded across (default 1 = the serial campaign).
	// Each replica is a fresh testbed seeded from ReplicaSeed(Seed, r);
	// replica r runs Injections/Replicas experiments, with the remainder
	// spread over the lowest-indexed replicas.
	Replicas int

	// Parallelism caps how many replicas run concurrently (0 = one worker
	// per replica). The merged report is byte-identical for every value:
	// results are merged by replica index, never by completion order.
	Parallelism int
}

// ReplicaError reports one replica's failure within a replicated
// campaign. RunReplicated keeps the other replicas' results; errors from
// multiple replicas are joined in replica order.
type ReplicaError struct {
	// Replica is the failed replica's index.
	Replica int
	// Seed is the derived seed the replica ran with (reproduce the
	// failure serially with Options.Seed = Seed).
	Seed int64
	// Completed is how many injections the replica finished before
	// failing; those injections are still pooled into the merged report.
	Completed int
	// Err is the underlying campaign error.
	Err error
}

func (e *ReplicaError) Error() string {
	return fmt.Sprintf("replica %d (seed %d) failed after %d injections: %v",
		e.Replica, e.Seed, e.Completed, e.Err)
}

func (e *ReplicaError) Unwrap() error { return e.Err }

// ReplicaSeed derives the RNG seed for replica r of a campaign with the
// given base seed. Replica 0 uses the base seed unchanged, so a
// single-replica campaign reproduces the serial campaign bit-for-bit;
// later replicas mix the index through a SplitMix64 finalizer so replicas
// draw effectively independent streams even for adjacent base seeds.
func ReplicaSeed(seed int64, r int) int64 {
	if r == 0 {
		return seed
	}
	x := uint64(seed) + uint64(r)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// RunReplicated executes a campaign sharded across opts.Replicas
// independent clusters and merges the per-replica reports, in replica
// order, into one pooled Report. With Replicas <= 1 it is exactly Run.
//
// Determinism: the merged Report (and the merged trace stream, when
// opts.Trace is set — per-replica spans are imported in replica order,
// tagged with trace.AttrReplica) depends only on (Options, Replicas),
// never on Parallelism or goroutine scheduling.
//
// A replica that fails mid-campaign contributes its completed injections
// to the pool and surfaces as a *ReplicaError (multiple failures are
// errors.Join-ed in replica order); the partial merged Report is returned
// alongside the error. It is RunReplicatedCtx with a background context.
func RunReplicated(opts ReplicatedOptions) (*Report, error) {
	return RunReplicatedCtx(context.Background(), opts)
}

// RunReplicatedCtx is RunReplicated with cancellation. A canceled ctx
// stops dispatching replicas and interrupts running ones between
// injections; every completed injection — from finished and interrupted
// replicas alike — is still pooled into the merged Report, with the
// interrupted replicas' cancellations surfacing as *ReplicaError values
// wrapping ctx.Err().
func RunReplicatedCtx(ctx context.Context, opts ReplicatedOptions) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	replicas := opts.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas < 0 {
		return nil, fmt.Errorf("replicas = %d: %w", opts.Replicas, ErrBadCampaign)
	}
	if replicas == 1 {
		return RunCtx(ctx, opts.Options)
	}
	if opts.Injections <= 0 {
		return nil, fmt.Errorf("injections = %d: %w", opts.Injections, ErrBadCampaign)
	}
	if replicas > opts.Injections {
		// No empty replicas: a cluster with nothing to inject is pure cost.
		replicas = opts.Injections
	}

	share := opts.Injections / replicas
	extra := opts.Injections % replicas
	reports := make([]*Report, replicas)
	errs := make([]error, replicas)
	recs := make([]*trace.Recorder, replicas)
	series := make([]*testbed.TimeSeries, replicas)
	// ContinueOnError: a stuck replica must not discard the others' work.
	poolErr := pool.Run(ctx, replicas, pool.Options{Workers: opts.Parallelism, ContinueOnError: true},
		func(_, i int) error {
			ropts := opts.Options
			ropts.Injections = share
			if i < extra {
				ropts.Injections++
			}
			ropts.Seed = ReplicaSeed(opts.Seed, i)
			if opts.Trace != nil {
				recs[i] = trace.New(trace.Config{Capacity: trace.Unbounded})
				ropts.Trace = recs[i]
			}
			if opts.TimeSeries != nil {
				// Each replica records privately (the recorder is not
				// concurrency-safe); the series merge below happens in
				// replica order, like the trace import, so the merged
				// series never depends on Parallelism.
				series[i] = testbed.NewTimeSeries(opts.TimeSeries.Width(), opts.TimeSeries.Cap())
				ropts.TimeSeries = series[i]
			}
			rep, err := RunCtx(ctx, ropts)
			reports[i] = rep
			if err != nil {
				completed := 0
				if rep != nil {
					completed = len(rep.Injections)
				}
				obsReplicaFailures.Inc()
				errs[i] = &ReplicaError{Replica: i, Seed: ropts.Seed, Completed: completed, Err: err}
			}
			return errs[i]
		})

	if opts.Trace != nil {
		for i, rc := range recs {
			if rc != nil {
				opts.Trace.Import(trace.TagReplica(rc.Spans(), i))
			}
		}
	}
	if opts.TimeSeries != nil {
		for _, ts := range series {
			if ts != nil {
				opts.TimeSeries.Merge(ts)
			}
		}
	}
	merged, err := mergeReports(opts.Options, replicas, reports)
	if err != nil {
		return merged, err
	}
	var joined []error
	for _, e := range errs {
		if e != nil {
			joined = append(joined, e)
			if e == poolErr {
				// The pool reports the lowest-indexed replica error; it is
				// already in the per-replica list.
				poolErr = nil
			}
		}
	}
	if poolErr != nil {
		// Cancellation with no per-replica error (replicas skipped before
		// starting) must still surface, or a canceled campaign would read
		// as complete.
		joined = append(joined, fmt.Errorf("faultinject: campaign canceled: %w", poolErr))
	}
	return merged, errors.Join(joined...)
}

// mergeReports pools per-replica reports, in slice (= replica) order, into
// one Report: injections concatenate, success and per-fault counts sum,
// recovery-time samples append per key, cluster stats merge, and the
// Equation (1) bounds are recomputed over the pooled counts. nil entries
// (replicas that produced nothing) are skipped. Every pooled list is
// counted first and sized once, so each record is copied once.
func mergeReports(opts Options, replicas int, parts []*Report) (*Report, error) {
	out := &Report{
		Config:        opts.Config,
		Replicas:      replicas,
		ByFault:       make(map[testbed.Fault]int),
		RecoveryTimes: make(map[string][]time.Duration),
	}
	injections := 0
	samples := make(map[string]int)
	stats := make([]testbed.Stats, 0, len(parts))
	for _, p := range parts {
		if p == nil {
			continue
		}
		injections += len(p.Injections)
		for k, v := range p.RecoveryTimes {
			samples[k] += len(v)
		}
		stats = append(stats, p.Stats)
	}
	out.Injections = make([]Injection, 0, injections)
	for k, n := range samples {
		out.RecoveryTimes[k] = make([]time.Duration, 0, n)
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Injections = append(out.Injections, p.Injections...)
		out.Successes += p.Successes
		for f, n := range p.ByFault {
			out.ByFault[f] += n
		}
		for k, v := range p.RecoveryTimes {
			out.RecoveryTimes[k] = append(out.RecoveryTimes[k], v...)
		}
	}
	out.Stats = testbed.MergeStats(stats...)
	// Rederive the per-class decomposition from the pooled records — a
	// sum of per-replica maps and a recompute agree exactly, and the
	// recompute keeps one source of truth.
	out.computeByClass()
	confidences := opts.Confidences
	if len(confidences) == 0 {
		confidences = []float64{0.95, 0.995}
	}
	if len(out.Injections) > 0 {
		for _, conf := range confidences {
			b, err := estimate.CoverageLowerBound(len(out.Injections), out.Successes, conf)
			if err != nil {
				return out, fmt.Errorf("faultinject: %w", err)
			}
			out.CoverageBounds = append(out.CoverageBounds, b)
		}
	}
	return out, nil
}
