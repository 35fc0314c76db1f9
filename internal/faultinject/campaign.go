// Package faultinject runs fault-injection campaigns against the
// simulated testbed, reproducing the paper's §3 methodology: thousands of
// injections across the fault taxonomy (process kills, fast-fails, network
// cuts, power pulls) on AS instances and HADB nodes, single- and
// multi-node (never both nodes of a pair), each followed by a recovery
// verdict. The campaign report feeds the Equation (1) coverage estimator.
//
// Run drives one cluster serially, as the paper's rig did; RunReplicated
// shards a campaign across independent replica clusters and pools the
// results (replicated.go).
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/estimate"
	"repro/internal/jsas"
	"repro/internal/obs"
	"repro/internal/progress"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// ErrBadCampaign is reported for invalid campaign options.
var ErrBadCampaign = errors.New("faultinject: invalid campaign")

// Campaign metrics, reported to the default obs registry.
var (
	obsInjections      = obs.C("faultinject_injections_total", "fault injections performed")
	obsReplicaFailures = obs.C("faultinject_replica_failures_total", "campaign replicas that failed mid-run")
)

// Fraction returns a pointer to v, for the Options fraction fields. The
// fields are pointers so that an explicit 0 (an HADB-only campaign, or a
// campaign with multi-node injections disabled) is distinguishable from
// "unset, use the default".
func Fraction(v float64) *float64 { return &v }

// Default fraction values used when the corresponding Options field is nil.
const (
	// DefaultASFraction is the default probability an injection targets an
	// AS instance (the automated campaign focused on HADB).
	DefaultASFraction = 0.3
	// DefaultMultiNodeFraction is the default probability an HADB
	// injection simultaneously hits a second node in a different pair.
	DefaultMultiNodeFraction = 0.1
)

// Options configures a campaign.
type Options struct {
	Config jsas.Config
	Params jsas.Params
	// Timing overrides the testbed's measured-truth behavior (nil =
	// defaults).
	Timing *testbed.Timing
	Seed   int64
	// Injections is the number of injection experiments (paper: 3287).
	Injections int
	// Faults restricts the taxonomy (empty = all fault types).
	Faults []testbed.Fault
	// ASFraction is the probability an injection targets an AS instance
	// rather than an HADB node. nil means DefaultASFraction (0.3); set an
	// explicit value with Fraction — Fraction(0) requests an HADB-only
	// campaign, Fraction(1) an AS-only one.
	ASFraction *float64
	// MultiNodeFraction is the probability an HADB injection
	// simultaneously hits a second node in a *different* pair (paper:
	// "multi-node (not in a pair) failures were induced"). nil means
	// DefaultMultiNodeFraction (0.1); Fraction(0) disables multi-node
	// injections entirely.
	MultiNodeFraction *float64
	// Domains declares the fault-domain tree (site → power domain/rack →
	// members) for common-cause injection; required when
	// CommonCauseFraction > 0.
	Domains []testbed.Domain
	// CommonCauseFraction is the probability an injection is a
	// domain-level common-cause burst: a random declared domain fails
	// atomically, every member with the same fault. nil (or Fraction(0))
	// keeps the campaign purely independent — and RNG-stream identical to
	// a pre-fault-domain campaign.
	CommonCauseFraction *float64
	// PartitionFraction is the probability an injection is a network
	// partition isolating a random nonempty subset of the AS instances
	// from the load balancer (LB split-brain; isolating all of them
	// models a switch loss). nil means 0. CommonCauseFraction +
	// PartitionFraction must not exceed 1.
	PartitionFraction *float64
	// RecoveryTimeout bounds how long the campaign waits for full cluster
	// health after an injection before declaring the recovery failed.
	// Default 4 h (covers HW physical repair).
	RecoveryTimeout time.Duration
	// Confidences for the Equation (1) coverage bounds (default 0.95 and
	// 0.995).
	Confidences []float64
	// Trace, if set, records the campaign as a span tree (sim-time): one
	// campaign root, one span per injection, and — via the testbed tracer —
	// component failure / recovery-stage / outage spans beneath each.
	Trace *trace.Recorder
	// Progress, if set, counts completed injections and observes each
	// recovery verdict as 1 or 0, so live status lines can show the
	// running success rate (the Eq. (1) quantity) with a CI half-width.
	// It advances in 64-injection steps, plus one final step when the
	// campaign stops for any reason, so it ends at the number of
	// completed injections. The tracker is atomic: replicated campaigns
	// share one across replicas.
	Progress *progress.Tracker
	// TimeSeries, if set, consumes the cluster event stream into a
	// windowed sim-time availability series. The series accounts time
	// only at outage boundaries and is complete once RunCtx has called
	// FinishAt with the campaign horizon, just before it returns.
	// Replicated campaigns give each replica a private series and merge
	// them in replica order.
	TimeSeries *testbed.TimeSeries
}

// asFraction resolves the AS-target probability.
func (o Options) asFraction() float64 {
	if o.ASFraction == nil {
		return DefaultASFraction
	}
	return *o.ASFraction
}

// multiNodeFraction resolves the multi-node probability.
func (o Options) multiNodeFraction() float64 {
	if o.MultiNodeFraction == nil {
		return DefaultMultiNodeFraction
	}
	return *o.MultiNodeFraction
}

// Injection records one experiment.
type Injection struct {
	At        time.Duration
	Target    string
	Fault     testbed.Fault
	MultiNode bool
	// Class is the cause class: independent (zero), common-cause (a
	// domain burst), or partition.
	Class testbed.Cause
	// Domain names the fault domain of a common-cause burst.
	Domain string
	// ComponentsFailed counts the component failures this injection
	// induced (1 or 2 independent, domain size for a burst, 0 for a
	// partition — isolated instances stay alive).
	ComponentsFailed int
	// Recovered reports whether the cluster returned to full health
	// within the timeout with no system-level outage.
	Recovered bool
	// RecoveryTime is the time from injection to full health.
	RecoveryTime time.Duration
}

// Report summarizes a campaign.
type Report struct {
	Config     jsas.Config
	Injections []Injection
	// Replicas is the number of independent replica clusters pooled into
	// this report (1 for a serial campaign).
	Replicas int
	// Successes counts recoveries with no system outage.
	Successes int
	// ByFault counts injections per fault type.
	ByFault map[testbed.Fault]int
	// ByClass decomposes injections, successes, component failures, and
	// downtime by cause class (independent vs. common-cause vs.
	// partition).
	ByClass map[testbed.Cause]ClassStats
	// CoverageBounds holds the Equation (1) bounds at each confidence,
	// computed over the pooled injection counts.
	CoverageBounds []estimate.CoverageBound
	// RecoveryTimes collects per-(component/fault-class) observed
	// recovery durations for the §5 parameter estimates.
	RecoveryTimes map[string][]time.Duration
	// Stats is the cluster's own availability accounting for the campaign
	// run — the ground truth the trace-based decomposition is checked
	// against. For a replicated report it is the per-replica Stats merged
	// with testbed.MergeStats.
	Stats testbed.Stats
}

// SuccessRate returns the fraction of injections that recovered.
func (r *Report) SuccessRate() float64 {
	if len(r.Injections) == 0 {
		return 0
	}
	return float64(r.Successes) / float64(len(r.Injections))
}

// Run executes a campaign on a fresh cluster. Injections are performed
// sequentially: the campaign waits for full health (or the timeout)
// between experiments, as the paper's rigs did.
//
// If the cluster fails to settle (or an injection cannot be placed)
// mid-campaign, Run returns the partial Report — every completed
// injection, with stats, recovery-time samples, and Equation (1) bounds
// computed over the completed portion — alongside the error, so a long
// campaign never loses finished work to one stuck recovery. It is RunCtx
// with a background context.
func Run(opts Options) (*Report, error) {
	return RunCtx(context.Background(), opts)
}

// RunCtx is Run with cancellation: the context is checked between
// injections, so a canceled campaign stops within one experiment and
// returns the partial Report (completed injections, stats, and bounds
// over the completed portion) alongside an error wrapping ctx.Err() —
// the same partial-work contract as a mid-campaign failure.
func RunCtx(ctx context.Context, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Injections <= 0 {
		return nil, fmt.Errorf("injections = %d: %w", opts.Injections, ErrBadCampaign)
	}
	asFraction := opts.asFraction()
	if asFraction < 0 || asFraction > 1 {
		return nil, fmt.Errorf("ASFraction = %g: %w", asFraction, ErrBadCampaign)
	}
	multiNodeFraction := opts.multiNodeFraction()
	if multiNodeFraction < 0 || multiNodeFraction > 1 {
		return nil, fmt.Errorf("MultiNodeFraction = %g: %w", multiNodeFraction, ErrBadCampaign)
	}
	ccFraction := opts.commonCauseFraction()
	if ccFraction < 0 || ccFraction > 1 {
		return nil, fmt.Errorf("CommonCauseFraction = %g: %w", ccFraction, ErrBadCampaign)
	}
	partitionFraction := opts.partitionFraction()
	if partitionFraction < 0 || partitionFraction > 1 {
		return nil, fmt.Errorf("PartitionFraction = %g: %w", partitionFraction, ErrBadCampaign)
	}
	correlated := ccFraction + partitionFraction
	if correlated > 1 {
		return nil, fmt.Errorf("CommonCauseFraction+PartitionFraction = %g > 1: %w", correlated, ErrBadCampaign)
	}
	if ccFraction > 0 && len(opts.Domains) == 0 {
		return nil, fmt.Errorf("CommonCauseFraction = %g with no Domains: %w", ccFraction, ErrBadCampaign)
	}
	if partitionFraction > 0 && opts.Config.ASInstances < 2 {
		return nil, fmt.Errorf("PartitionFraction = %g needs at least 2 AS instances: %w", partitionFraction, ErrBadCampaign)
	}
	if len(opts.Domains) > 0 {
		if err := testbed.ValidateDomains(opts.Domains, opts.Config.ASInstances, opts.Config.HADBPairs); err != nil {
			return nil, fmt.Errorf("domains: %v: %w", err, ErrBadCampaign)
		}
	}
	if opts.RecoveryTimeout <= 0 {
		opts.RecoveryTimeout = 4 * time.Hour
	}
	if len(opts.Faults) == 0 {
		opts.Faults = testbed.Faults()
	}
	// Reject an unknown Fault value here, not after thousands of healthy
	// injections: Fault.Kind is the taxonomy's source of truth, and a
	// value outside it is a configuration error, not a mid-campaign one.
	for _, f := range opts.Faults {
		if _, err := f.Kind(); err != nil {
			return nil, fmt.Errorf("faults: %v: %w", err, ErrBadCampaign)
		}
	}
	if len(opts.Confidences) == 0 {
		opts.Confidences = []float64{0.95, 0.995}
	}
	if opts.Config.HADBPairs == 0 && asFraction < 1 {
		return nil, fmt.Errorf("campaign needs HADB pairs or ASFraction=1: %w", ErrBadCampaign)
	}
	var (
		tracer   *testbed.Tracer
		root     *trace.Active
		observer testbed.Observer
	)
	if opts.Trace != nil {
		root = opts.Trace.StartAt(trace.SpanCampaign, 0, nil,
			trace.String(trace.AttrTrack, "campaign"),
			trace.Int("injections", int64(opts.Injections)),
			trace.Int("seed", opts.Seed))
		tracer = testbed.NewTracer(opts.Trace, root)
		observer = tracer.Observe
	}
	if opts.TimeSeries != nil {
		observer = testbed.MultiObserver(observer, opts.TimeSeries.Observe)
	}
	cluster, err := testbed.New(testbed.Options{
		Config:   opts.Config,
		Params:   opts.Params,
		Timing:   opts.Timing,
		Seed:     opts.Seed,
		Domains:  opts.Domains,
		Observer: observer,
		// Organic failures off: every failure is an injection.
	})
	if err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	rng := cluster.Sim().RNG()
	// The "domain:<name>" target of each declared domain, built once.
	domainTargets := make([]string, len(opts.Domains))
	for j, d := range opts.Domains {
		domainTargets[j] = "domain:" + d.Name
	}
	// Scratch for partition target selection (partial Fisher–Yates),
	// allocated once for the whole campaign.
	var partitionIDs []int
	if partitionFraction > 0 {
		partitionIDs = make([]int, opts.Config.ASInstances)
	}
	rep := &Report{
		Config:        opts.Config,
		Injections:    make([]Injection, 0, opts.Injections),
		Replicas:      1,
		ByFault:       make(map[testbed.Fault]int),
		RecoveryTimes: make(map[string][]time.Duration),
	}
	// Progress is reported in batches: pendingDone injections, of which
	// pendingRecovered recovered, are not yet on opts.Progress.
	var pendingDone, pendingRecovered int64
	var runErr error
	for i := 0; i < opts.Injections; i++ {
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("faultinject: campaign canceled before injection %d: %w", i, err)
			break
		}
		if err := waitHealthy(cluster, opts.RecoveryTimeout); err != nil {
			runErr = fmt.Errorf("faultinject: cluster did not settle before injection %d: %w", i, err)
			break
		}
		// The class selector draw happens only when correlated injections
		// are requested, so a purely independent campaign consumes the
		// exact RNG stream it always has — same-seed reports stay
		// byte-identical to pre-fault-domain runs.
		class := testbed.CauseIndependent
		if correlated > 0 {
			switch u := rng.Float64(); {
			case u < ccFraction:
				class = testbed.CauseCommonCause
			case u < correlated:
				class = testbed.CausePartition
			}
		}
		// A partition is the network-cut fault by definition; the
		// taxonomy draw is reserved for injections that fail components.
		fault := testbed.FaultNetworkCut
		if class != testbed.CausePartition {
			fault = opts.Faults[rng.Intn(len(opts.Faults))]
		}
		inj := Injection{At: cluster.Now(), Fault: fault, Class: class}
		kind, err := fault.Kind()
		if err != nil {
			runErr = fmt.Errorf("faultinject: injection %d: %w", i, err)
			break
		}
		// Count closed-or-open outages before injecting: an injection that
		// opens an outage must not count it as pre-existing. OutageCount
		// avoids Stats, which copies the whole outage and recovery history
		// and would make the campaign quadratic in its own length.
		outagesBefore := cluster.OutageCount()
		// Span attributes are built only under a recorder: a variadic
		// attribute list escapes to the heap even when the span is nil.
		var injSpan *trace.Active
		if tracer != nil {
			injSpan = opts.Trace.StartAt(trace.SpanInjection, inj.At, root,
				trace.String(trace.AttrTrack, "campaign"),
				trace.Int(trace.AttrIndex, int64(i)),
				trace.String(trace.AttrFault, fault.String()),
				trace.String(trace.AttrKind, kind.String()))
			tracer.SetParent(injSpan)
		}
		var placeErr error
		switch class {
		case testbed.CauseCommonCause:
			j := rng.Intn(len(opts.Domains))
			d := opts.Domains[j]
			inj.Domain = d.Name
			inj.Target = domainTargets[j]
			if injSpan != nil {
				injSpan.Attr(
					trace.String(trace.AttrClass, class.String()),
					trace.String(trace.AttrDomain, d.Name))
			}
			if n, err := cluster.InjectDomain(d.Name, fault); err != nil {
				placeErr = err
			} else {
				inj.ComponentsFailed = n
				obsDomainInjections.Inc()
			}
		case testbed.CausePartition:
			// Isolate a random nonempty subset of the instances via a
			// partial Fisher–Yates shuffle of the scratch index slice.
			// k = n cuts the whole tier off from the load balancer (switch
			// loss) — the system is down until the partition heals even
			// though every instance is alive.
			n := opts.Config.ASInstances
			k := 1 + rng.Intn(n)
			for j := range partitionIDs {
				partitionIDs[j] = j
			}
			for j := 0; j < k; j++ {
				swap := j + rng.Intn(n-j)
				partitionIDs[j], partitionIDs[swap] = partitionIDs[swap], partitionIDs[j]
			}
			inj.Target = fmt.Sprintf("network:%d", k)
			if injSpan != nil {
				injSpan.Attr(trace.String(trace.AttrClass, class.String()))
			}
			if err := cluster.InjectPartition(partitionIDs[:k]); err != nil {
				placeErr = err
			} else {
				obsPartitionInjections.Inc()
			}
		default:
			if rng.Float64() < asFraction {
				id := rng.Intn(opts.Config.ASInstances)
				inj.Target = fmt.Sprintf("as-%d", id)
				if injSpan != nil {
					injSpan.Attr(trace.String(trace.AttrComponent, testbed.ComponentAS.String()))
				}
				if err := cluster.InjectAS(id, fault); err != nil {
					placeErr = err
				} else {
					inj.ComponentsFailed = 1
				}
			} else {
				pair := rng.Intn(opts.Config.HADBPairs)
				slot := rng.Intn(2)
				inj.Target = fmt.Sprintf("hadb-%d/%d", pair, slot)
				if injSpan != nil {
					injSpan.Attr(trace.String(trace.AttrComponent, testbed.ComponentHADB.String()))
				}
				if err := cluster.InjectHADB(pair, slot, fault); err != nil {
					placeErr = err
					break
				}
				inj.ComponentsFailed = 1
				// Multi-node: a simultaneous second injection in another pair.
				if opts.Config.HADBPairs > 1 && rng.Float64() < multiNodeFraction {
					other := (pair + 1 + rng.Intn(opts.Config.HADBPairs-1)) % opts.Config.HADBPairs
					if err := cluster.InjectHADB(other, rng.Intn(2), fault); err != nil {
						placeErr = fmt.Errorf("multi-node: %w", err)
						break
					}
					inj.MultiNode = true
					inj.ComponentsFailed = 2
				}
			}
		}
		if placeErr != nil {
			injSpan.EndAt(cluster.Now())
			runErr = fmt.Errorf("faultinject: injection %d: %w", i, placeErr)
			break
		}
		healthyErr := waitHealthy(cluster, opts.RecoveryTimeout)
		inj.RecoveryTime = cluster.Now() - inj.At
		inj.Recovered = healthyErr == nil && cluster.OutageCount() == outagesBefore
		if inj.Recovered {
			rep.Successes++
		}
		if tracer != nil {
			injSpan.Attr(
				trace.String(trace.AttrTarget, inj.Target),
				trace.Bool(trace.AttrMultiNode, inj.MultiNode),
				trace.Bool(trace.AttrRecovered, inj.Recovered))
			tracer.SetParent(root)
			injSpan.EndAt(cluster.Now())
		}
		rep.ByFault[fault]++
		rep.Injections = append(rep.Injections, inj)
		obsInjections.Inc()
		obsInjectionsByClass[class].Inc()
		pendingDone++
		if inj.Recovered {
			pendingRecovered++
		}
		if pendingDone == progressBatch {
			flushProgress(opts.Progress, pendingDone, pendingRecovered)
			pendingDone, pendingRecovered = 0, 0
		}
	}
	flushProgress(opts.Progress, pendingDone, pendingRecovered)
	if tracer != nil {
		tracer.Close(cluster.Now())
		root.EndAt(cluster.Now())
	}
	if opts.TimeSeries != nil {
		opts.TimeSeries.FinishAt(cluster.Now())
	}
	rep.Stats = cluster.Stats()
	cluster.Close()
	rep.computeByClass()
	// Collect the recovery-time samples for parameter estimation.
	for _, rec := range rep.Stats.Recoveries {
		if !rec.Success {
			continue
		}
		key := fmt.Sprintf("%s/%s", rec.Component, rec.Kind)
		rep.RecoveryTimes[key] = append(rep.RecoveryTimes[key], rec.Duration)
	}
	if len(rep.Injections) > 0 {
		for _, conf := range opts.Confidences {
			b, err := estimate.CoverageLowerBound(len(rep.Injections), rep.Successes, conf)
			if err != nil {
				return rep, fmt.Errorf("faultinject: %w", err)
			}
			rep.CoverageBounds = append(rep.CoverageBounds, b)
		}
	}
	return rep, runErr
}

// progressBatch is how many injections RunCtx completes between progress
// reports: a tracker shared by replicas then takes one batch of atomic
// adds per 64 injections instead of four per injection.
const progressBatch = 64

// flushProgress reports done completed injections, recovered of which
// recovered, to t (nil-safe). Verdicts are 0/1, so the running sum and sum
// of squares are both the recovered count: exact, and the same snapshot
// as one Observe per verdict.
func flushProgress(t *progress.Tracker, done, recovered int64) {
	t.Add(done)
	t.ObserveSum(done, float64(recovered), float64(recovered))
}

// waitHealthy advances the simulation event-by-event until every component
// is serving, or the timeout elapses. Advancing on event boundaries (not a
// fixed polling step) makes the measured recovery times exact to the
// simulator's clock — a fixed step would quantize every
// Injection.RecoveryTime up to one step above truth, biasing the §5
// recovery-time estimates.
func waitHealthy(c *testbed.Cluster, timeout time.Duration) error {
	deadline := c.Now() + timeout
	if deadline < c.Now() {
		// Overflow: a huge timeout deep into a long run would wrap the
		// deadline negative, making c.Now() >= deadline immediately true
		// and failing the campaign spuriously. Clamp to the far horizon,
		// as des.Sim.Schedule does for overflowing delays.
		deadline = time.Duration(math.MaxInt64)
	}
	for {
		if c.Healthy() {
			return nil
		}
		if c.Now() >= deadline {
			return fmt.Errorf("not healthy after %v: %w", timeout, ErrBadCampaign)
		}
		next, ok := c.Sim().NextEventAt()
		if !ok || next > deadline {
			// Health only changes on events; none can arrive in time.
			// Advance to the deadline (charging the unhealthy wait to the
			// availability accounting) and report the timeout.
			if err := c.Run(deadline); err != nil {
				return err
			}
			if c.Healthy() {
				return nil
			}
			return fmt.Errorf("not healthy after %v: %w", timeout, ErrBadCampaign)
		}
		if err := c.Run(next); err != nil {
			return err
		}
	}
}
