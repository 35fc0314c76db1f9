package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jsas"
	"repro/internal/spec"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// The campaign workload: one closed-loop caller, in process, runs
// 100,000-injection campaigns on the Config 1 testbed with the fault
// domains of models/domains-config1.json, 20% common-cause bursts, 10%
// network partitions and otherwise the paper's defaults, each sharded
// over 4 replicas at parallelism 2 with a fresh seed. Every fourth
// campaign is repeated at parallelism 1 with the same seed; the merged
// reports must be equal, and that serial campaign's time is op2.

const (
	campaignInjections  = 100000
	campaignReplicas    = 4
	campaignParallelism = 2
	serialEvery         = 4
	domainsDocument     = "models/domains-config1.json"
)

func loadDomains() ([]testbed.Domain, error) {
	f, err := os.Open(domainsDocument)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spec.ParseDomains(f)
}

// campaignOptions is the workload's campaign with the given seed and
// parallelism.
func campaignOptions(domains []testbed.Domain, seed int64, parallelism int) faultinject.ReplicatedOptions {
	return faultinject.ReplicatedOptions{
		Options: faultinject.Options{
			Config:              jsas.Config1,
			Params:              jsas.DefaultParams(),
			Seed:                seed,
			Injections:          campaignInjections,
			Domains:             domains,
			CommonCauseFraction: faultinject.Fraction(0.2),
			PartitionFraction:   faultinject.Fraction(0.1),
		},
		Replicas:    campaignReplicas,
		Parallelism: parallelism,
	}
}

// runCampaignOnce runs one campaign under an optional span.
func runCampaignOnce(opts faultinject.ReplicatedOptions, rec *trace.Recorder, parent *trace.Active) (*faultinject.Report, error) {
	sp := rec.Start("faultinject.run_replicated", parent, trace.Int("parallelism", int64(opts.Parallelism)))
	defer sp.End()
	return faultinject.RunReplicated(opts)
}

// checkCampaign verifies that every injection is accounted for and that
// the per-class decomposition sums to the totals.
func checkCampaign(o *outcome, rep *faultinject.Report, err error, seed int64) {
	var re *faultinject.ReplicaError
	if errors.As(err, &re) {
		o.check(false, "campaign seed %d: replica %d failed: %v", seed, re.Replica, re.Err)
		return
	}
	if err != nil {
		o.check(false, "campaign seed %d: %v", seed, err)
		return
	}
	o.check(len(rep.Injections) == campaignInjections && rep.Replicas == campaignReplicas,
		"campaign seed %d: %d injections over %d replicas", seed, len(rep.Injections), rep.Replicas)
	var inj, ok int
	for _, cs := range rep.ByClass {
		inj += cs.Injections
		ok += cs.Successes
	}
	o.check(inj == len(rep.Injections) && ok == rep.Successes,
		"campaign seed %d: by-class sums %d/%d, totals %d/%d", seed, inj, ok, len(rep.Injections), rep.Successes)
	for _, cl := range []testbed.Cause{testbed.CauseIndependent, testbed.CauseCommonCause, testbed.CausePartition} {
		o.check(rep.ByClass[cl].Injections > 0, "campaign seed %d: no %v injections", seed, cl)
	}
}

func runCampaign(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}}
	var domains []testbed.Domain

	// Set-up: parse the domain document and run one checked warm-up
	// campaign, setupReps times; the median is setup_s.
	var setups []time.Duration
	for k := 0; k < setupReps; k++ {
		d, err := timeIt(func() error {
			var err error
			if domains, err = loadDomains(); err != nil {
				return fmt.Errorf("%s: %w", domainsDocument, err)
			}
			seed := splitmix(e.seed, int64(-1-k))
			rep, err := faultinject.RunReplicated(campaignOptions(domains, seed, campaignParallelism))
			checkCampaign(o, rep, err, seed)
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	run := timing{name: "campaign.run_ms"}
	serial := timing{name: "campaign.serial_ms"}
	var tracedRun timing
	var rec *trace.Recorder
	if e.traced {
		rec = newRecorder()
	}
	rss, err := startRSSSampler(0)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(e.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		seed := splitmix(e.seed, int64(i))
		traced := e.traced && i%2 == 0
		var on *trace.Recorder
		var root *trace.Active
		if traced {
			on = rec
			root = rec.Start("campaign.run", nil, trace.Int("seed", seed))
		}
		var rep *faultinject.Report
		d, err := timeIt(func() error {
			var err error
			rep, err = runCampaignOnce(campaignOptions(domains, seed, campaignParallelism), on, root)
			return err
		})
		root.End()
		o.attempted++
		checkCampaign(o, rep, err, seed)
		if err != nil {
			o.failed++
			continue
		}
		if traced {
			tracedRun.add(d)
		} else {
			run.add(d)
		}
		if i%serialEvery != 0 {
			continue
		}
		// Same seed at parallelism 1: the merged report must not change.
		if traced {
			root = rec.Start("campaign.serial", nil, trace.Int("seed", seed))
		}
		var ref *faultinject.Report
		d, err = timeIt(func() error {
			var err error
			ref, err = runCampaignOnce(campaignOptions(domains, seed, 1), on, root)
			return err
		})
		root.End()
		o.attempted++
		checkCampaign(o, ref, err, seed)
		if err != nil {
			o.failed++
			continue
		}
		if !traced {
			serial.add(d)
		}
		if !reflect.DeepEqual(rep, ref) {
			o.failed++
			o.check(false, "campaign seed %d: parallelism 1 and %d reports differ", seed, campaignParallelism)
		}
	}
	if o.e2e[mRSS], err = rss.finish(); err != nil {
		return nil, err
	}
	o.e2e[mSetup] = setupMetric(setups)
	o.e2e[mOpP50] = rename(run.p50(), mOpP50)
	o.e2e[mOpTail] = rename(run.tail(900), mOpTail)
	o.e2e[mOp2P50] = rename(serial.p50(), mOp2P50)
	o.addDetail(o.e2e[mSetup], o.e2e[mRSS], run.p50(), run.tail(900), serial.p50())
	if e.traced {
		if err := finishTrace(e, o, rec, "campaign", run, tracedRun); err != nil {
			return nil, err
		}
	}
	return o, nil
}
