// Package workload models the two benchmark applications the paper used
// for its longevity (stability) measurements — the digital-marketplace
// J2EE application and the Nile Bookstore e-commerce benchmark — and
// provides the longevity-run driver that exercises the simulated testbed
// under a sustained load factor and turns the observed failure counts into
// the Equation (2) failure-rate bounds.
package workload

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/estimate"
	"repro/internal/jsas"
	"repro/internal/progress"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// ErrBadRun is reported for invalid longevity-run options.
var ErrBadRun = errors.New("workload: invalid run options")

// Profile describes a benchmark application's load shape.
type Profile struct {
	// Name of the benchmark.
	Name string
	// SessionKB is the average HTTP session size persisted to HADB.
	SessionKB int
	// SessionsPerInstance is the concurrent session population carried by
	// each AS instance.
	SessionsPerInstance int
	// RequestRatePerSecond is the offered request rate at full capacity.
	RequestRatePerSecond float64
	// LoadFactor is the fraction of capacity exercised (paper: 0.6–0.7).
	LoadFactor float64
}

// Validate checks the profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("unnamed profile: %w", ErrBadRun)
	case p.SessionKB <= 0:
		return fmt.Errorf("profile %s: SessionKB = %d: %w", p.Name, p.SessionKB, ErrBadRun)
	case p.SessionsPerInstance <= 0:
		return fmt.Errorf("profile %s: SessionsPerInstance = %d: %w", p.Name, p.SessionsPerInstance, ErrBadRun)
	case p.RequestRatePerSecond <= 0:
		return fmt.Errorf("profile %s: RequestRatePerSecond = %g: %w", p.Name, p.RequestRatePerSecond, ErrBadRun)
	case p.LoadFactor <= 0 || p.LoadFactor > 1:
		return fmt.Errorf("profile %s: LoadFactor = %g: %w", p.Name, p.LoadFactor, ErrBadRun)
	}
	return nil
}

// EffectiveRate is the offered rate at the profile's load factor.
func (p Profile) EffectiveRate() float64 {
	return p.RequestRatePerSecond * p.LoadFactor
}

// Marketplace is the paper's first test application: a digital-marketplace
// J2EE web application with Catalog, Auction, Pricing, and Order
// Management modules; 50 KB average sessions.
func Marketplace() Profile {
	return Profile{
		Name:                 "Digital Marketplace",
		SessionKB:            50,
		SessionsPerInstance:  10000,
		RequestRatePerSecond: 18,
		LoadFactor:           0.65,
	}
}

// NileBookstore is the paper's second test application: the Nile Bookstore
// end-to-end e-commerce benchmark; 30 KB average sessions.
func NileBookstore() Profile {
	return Profile{
		Name:                 "Nile Bookstore",
		SessionKB:            30,
		SessionsPerInstance:  10000,
		RequestRatePerSecond: 18,
		LoadFactor:           0.65,
	}
}

// Profiles returns the paper's two benchmark profiles.
func Profiles() []Profile {
	return []Profile{Marketplace(), NileBookstore()}
}

// NodeDataGB estimates the session data volume per HADB node for a
// deployment: each DRU holds the complete session set spread across its
// pairs (paper §5: within 1 GB per node for the test configuration).
func NodeDataGB(cfg jsas.Config, p Profile) float64 {
	if cfg.HADBPairs == 0 {
		return 0
	}
	totalGB := float64(cfg.ASInstances) * float64(p.SessionsPerInstance) * float64(p.SessionKB) / 1e6
	return totalGB / float64(cfg.HADBPairs)
}

// RunOptions configures a longevity run.
type RunOptions struct {
	Config jsas.Config
	Params jsas.Params
	// Profile is the benchmark application profile.
	Profile Profile
	// Duration is the virtual run length (paper: 7-day runs plus one
	// 24-day run).
	Duration time.Duration
	Seed     int64
	// OrganicFailures enables random failures at the Params rates; the
	// paper's stability runs observed none, which is consistent with the
	// rates over a 7-day window but not guaranteed — the estimator uses
	// whatever count the run produced.
	OrganicFailures bool
	// Confidences for the Equation (2) failure-rate bounds (defaults to
	// 0.95 and 0.995, as in the paper).
	Confidences []float64
	// Trace, if set, records the run as a sim-time span tree: one longevity
	// root span with component failure / recovery / outage spans beneath it.
	Trace *trace.Recorder
	// Progress, if set, receives one Done() per simulated chunk (runChunks
	// per run), so multi-day virtual runs report completion at sub-run
	// granularity. The tracker is atomic: a series shares one across runs.
	// nil (the default) costs one predictable branch per chunk.
	Progress *progress.Tracker
	// TimeSeries, if set, consumes the cluster event stream into a
	// windowed sim-time availability series (finished with the run horizon
	// before Run returns). A series gives each run a private recorder
	// and merges them in series order.
	TimeSeries *testbed.TimeSeries
}

// Result summarizes a longevity run.
type Result struct {
	Profile  Profile
	Config   jsas.Config
	Duration time.Duration
	// RequestsServed/RequestsFailed are the workload counters.
	RequestsServed, RequestsFailed float64
	// Availability is the observed uptime fraction.
	Availability float64
	// ASInstanceFailures counts AS instance failures during the run.
	ASInstanceFailures int
	// SystemOutages counts system-level outages.
	SystemOutages int
	// InstanceExposure is the total AS exposure (instances × duration)
	// the Equation (2) bound is computed over.
	InstanceExposure time.Duration
	// RateBounds are the Equation (2) upper bounds on the per-instance AS
	// failure rate at each requested confidence.
	RateBounds []estimate.FailureRateBound
}

// runChunks is how many slices a longevity run's virtual duration is cut
// into for cancellation checks: the simulation advances chunk by chunk
// (processing exactly the same event sequence as one uninterrupted
// advance, so results are byte-identical) and a canceled context is
// noticed within one chunk — about 1.75 simulated hours on a 7-day run.
const runChunks = 96

// ProgressChunks reports how many Progress.Done ticks one run of virtual
// length d produces (its cancellation-chunk count), so drivers can size a
// progress tracker's total exactly: Runs × ProgressChunks(d).
func ProgressChunks(d time.Duration) int64 {
	step := d / runChunks
	if step <= 0 {
		return 1
	}
	n := int64(d / step)
	if d%step != 0 {
		n++
	}
	return n
}

// Run executes a longevity test on a fresh simulated cluster. The virtual
// run advances in runChunks slices and aborts with an error wrapping
// ctx.Err() when the context is canceled. A canceled run returns no
// Result — a truncated exposure window would silently weaken the
// Equation (2) bound it feeds.
func Run(ctx context.Context, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Profile.Validate(); err != nil {
		return nil, err
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("duration %v: %w", opts.Duration, ErrBadRun)
	}
	if len(opts.Confidences) == 0 {
		opts.Confidences = []float64{0.95, 0.995}
	}
	timing := testbed.DefaultTiming()
	if gb := NodeDataGB(opts.Config, opts.Profile); gb > 0 {
		timing.NodeDataGB = gb
	}
	var (
		tracer   *testbed.Tracer
		root     *trace.Active
		observer testbed.Observer
	)
	if opts.Trace != nil {
		root = opts.Trace.StartAt(trace.SpanLongevity, 0, nil,
			trace.String(trace.AttrTrack, "longevity"),
			trace.String("profile", opts.Profile.Name),
			trace.Int("seed", opts.Seed))
		tracer = testbed.NewTracer(opts.Trace, root)
		observer = tracer.Observe
	}
	if opts.TimeSeries != nil {
		observer = testbed.MultiObserver(observer, opts.TimeSeries.Observe)
	}
	cluster, err := testbed.New(testbed.Options{
		Config:               opts.Config,
		Params:               opts.Params,
		Timing:               &timing,
		Seed:                 opts.Seed,
		OrganicFailures:      opts.OrganicFailures,
		Maintenance:          false, // stability runs exclude scheduled maintenance
		RequestRatePerSecond: opts.Profile.EffectiveRate(),
		SessionsPerInstance:  opts.Profile.SessionsPerInstance,
		Observer:             observer,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	step := opts.Duration / runChunks
	if step <= 0 {
		step = opts.Duration
	}
	for until := step; ; until += step {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("workload: run canceled at %v of %v: %w",
				cluster.Now(), opts.Duration, err)
		}
		if until > opts.Duration {
			until = opts.Duration
		}
		if err := cluster.Run(until); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		if opts.Progress != nil {
			opts.Progress.Done()
		}
		if until == opts.Duration {
			break
		}
	}
	if tracer != nil {
		tracer.Close(cluster.Now())
		root.EndAt(cluster.Now())
	}
	if opts.TimeSeries != nil {
		opts.TimeSeries.FinishAt(cluster.Now())
	}
	stats := cluster.Stats()
	cluster.Close()
	res := &Result{
		Profile:          opts.Profile,
		Config:           opts.Config,
		Duration:         opts.Duration,
		RequestsServed:   stats.RequestsServed,
		RequestsFailed:   stats.RequestsFailed,
		Availability:     stats.Availability(),
		SystemOutages:    len(stats.Outages),
		InstanceExposure: time.Duration(opts.Config.ASInstances) * opts.Duration,
	}
	for _, r := range stats.Recoveries {
		if r.Component == testbed.ComponentAS {
			res.ASInstanceFailures++
		}
	}
	for _, conf := range opts.Confidences {
		b, err := estimate.FailureRateUpperBound(res.InstanceExposure, res.ASInstanceFailures, conf)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		res.RateBounds = append(res.RateBounds, b)
	}
	return res, nil
}
