package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/backend"
	"repro/internal/ctmc"
	"repro/internal/faultinject"
	"repro/internal/hier"
	"repro/internal/jsas"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/sensitivity"
	"repro/internal/spec"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/uncertainty"
)

// A traced run prints every per-layer metric below, whatever its
// workload: the workload's own loop gives the self-time table and the
// tracing overhead, and short probes around each layer's public
// functions give the rest. Layers the workload does not load are probed
// the same way, so every workload reports the same set.
var perLayer = []string{
	"trace.overhead_ms", "trace.overhead_pct",
	"jsas.build_us.as", "jsas.build_us.hadb",
	"ctmc.steady_us.as", "ctmc.steady_us.hadb", "ctmc.steady_us.top",
	"hier.evaluate_us", "hier.self_us",
	"jsas.solve_us", "jsas.self_us", "jsas.allocs_per_solve", "jsas.bytes_per_solve",
	"uncertainty.sample_us", "uncertainty.allocs_per_sample", "uncertainty.bytes_per_sample",
	"ctmc.solves_per_sample",
	"sensitivity.point_us",
	"des.events_per_injection", "des.event_ns",
	"testbed.cluster_new_us",
	"faultinject.injection_us.independent", "faultinject.injection_us.common_cause", "faultinject.injection_us.partition",
	"faultinject.bytes_per_injection.independent", "faultinject.bytes_per_injection.common_cause", "faultinject.bytes_per_injection.partition",
	"faultinject.allocs_per_injection.independent", "faultinject.allocs_per_injection.common_cause", "faultinject.allocs_per_injection.partition",
	"faultinject.replica_ms.min", "faultinject.replica_ms.max", "faultinject.merge_ms", "pool.parallel_speedup",
	"spec.parse_us.flat", "spec.parse_us.hier",
	"bayes.solve_ms.n10", "bayes.solve_ms.n25", "bayes.solve_ms.n40",
	"httpapi.route_ms.p50.jsas", "httpapi.route_ms.p50.solve", "httpapi.route_ms.p50.solve_hierarchy",
	"httpapi.route_ms.p50.solve_bayes", "httpapi.route_ms.p50.jobs_submit",
	"httpapi.server_ms.mean.jsas", "httpapi.server_ms.mean.solve", "httpapi.server_ms.mean.solve_hierarchy",
	"httpapi.server_ms.mean.jobs_submit",
	"httpapi.transport_ms", "httpapi.glue_us.jsas",
	"jobs.queue_wait_ms.p50", "jobs.queue_wait_ms.p99",
	"jobs.run_ms.p50.uncertainty", "jobs.run_ms.p50.campaign", "jobs.follow_lag_ms.p50",
	"jobs.cache_hit_ratio", "jobs.coalesced_ratio", "jobs.rejected", "httpapi.rejected",
	"serve.gen_late_ms.max",
}

// probeServeSeconds is how long the traced runs of the in-process
// workloads drive a light serve session to fill the serving metrics.
const probeServeSeconds = 3 * time.Second

func newRecorder() *trace.Recorder { return trace.New(trace.Config{Capacity: trace.Unbounded}) }

// writeSpans saves a traced run's spans as JSONL, the format
// jsas-report -trace renders.
func writeSpans(e *env, workload string, spans []trace.Span) (string, error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, e.seed))
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, spans); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// overhead reports the traced-minus-untraced median.
func overhead(o *outcome, untraced, traced timing) {
	u, t := median(untraced.xs), median(traced.xs)
	o.addLayer(
		metric{"trace.overhead_ms", t - u, unitMS, len(traced.xs)},
		metric{"trace.overhead_pct", 100 * (t - u) / u, unitPct, len(traced.xs)},
	)
}

// finishTrace completes the traced run of an in-process workload.
func finishTrace(e *env, o *outcome, rec *trace.Recorder, workload string, untraced, traced timing) error {
	spans := rec.Spans()
	path, err := writeSpans(e, workload, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.w, "spans: %s\n", path)
	writeLayerTable(e.w, spans)
	overhead(o, untraced, traced)
	inproc, err := probeLayers(o)
	if err != nil {
		return err
	}
	ss, err := runServeSession(e, splitmix(e.seed, 77), 1, serveRates[:1], probeServeSeconds, false)
	if err != nil {
		return err
	}
	for _, p := range ss.problems {
		o.check(false, "serve probe: %s", p)
	}
	serveLayers(o, ss, inproc)
	return nil
}

// finishServeTrace completes the traced serve-mix run.
func finishServeTrace(e *env, o *outcome, ss *serveSession, light stepStats) error {
	spans := ss.rec.Spans()
	path, err := writeSpans(e, "serve-mix", spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.w, "spans: %s\n", path)
	writeLayerTable(e.w, spans)
	overhead(o, light.sync, light.tracedSync)
	inproc, err := probeLayers(o)
	if err != nil {
		return err
	}
	serveLayers(o, ss, inproc)
	return nil
}

// serveLayers derives the serving layers' metrics from a session: the
// client's per-route times, the server's own histograms and counters,
// and the job status timestamps. inprocJSASus is the in-process
// jsas.Solve mean over the Table 3 grid.
func serveLayers(o *outcome, ss *serveSession, inprocJSASus float64) {
	routes := map[string]*timing{}
	route := func(name string) *timing {
		if routes[name] == nil {
			routes[name] = &timing{}
		}
		return routes[name]
	}
	var queue, lag, late []float64
	run := map[opKind]*timing{opUncertainty: {}, opCampaign: {}}
	var jsasSum time.Duration
	var jsasN int
	for _, st := range ss.steps {
		for _, r := range st.results {
			late = append(late, ms(r.late))
			if r.failed {
				continue
			}
			name := opNames[r.kind]
			if r.kind.isJob() {
				name = "jobs_submit"
			}
			route(name).add(r.route)
			if r.kind == opJSAS {
				jsasSum += r.route
				jsasN++
			}
			if !r.kind.isJob() || r.cached || r.started.IsZero() || r.ended.IsZero() {
				continue
			}
			queue = append(queue, ms(r.started.Sub(r.created)))
			run[r.kind].add(r.ended.Sub(r.started))
			lag = append(lag, ms(r.doneAt.Sub(r.ended)))
		}
	}
	for _, name := range []string{"jsas", "solve", "solve_hierarchy", "solve_bayes", "jobs_submit"} {
		o.addLayer(rename(route(name).p50(), "httpapi.route_ms.p50."+name))
	}
	before, after := ss.steps[0].before, ss.steps[len(ss.steps)-1].after
	serverJSAS := 0.0
	for _, r := range []struct{ name, label string }{
		{"jsas", "/v1/jsas"}, {"solve", "/v1/solve"}, {"solve_hierarchy", "/v1/solve-hierarchy"}, {"jobs_submit", "/v1/jobs"},
	} {
		mean, _ := routeMeanMS(before, after, r.label)
		if r.name == "jsas" {
			serverJSAS = mean
		}
		o.addLayer(metric{"httpapi.server_ms.mean." + r.name, mean, unitMS, 0})
	}
	clientJSAS := 0.0
	if jsasN > 0 {
		clientJSAS = ms(jsasSum) / float64(jsasN)
	}
	o.addLayer(
		metric{"httpapi.transport_ms", clientJSAS - serverJSAS, unitMS, jsasN},
		metric{"httpapi.glue_us.jsas", serverJSAS*1000 - inprocJSASus, unitUS, jsasN},
		metric{"jobs.queue_wait_ms.p50", median(queue), unitMS, len(queue)},
		metric{"jobs.queue_wait_ms.p99", percentile(queue, 990), unitMS, len(queue)},
		rename(run[opUncertainty].p50(), "jobs.run_ms.p50.uncertainty"),
		rename(run[opCampaign].p50(), "jobs.run_ms.p50.campaign"),
		metric{"jobs.follow_lag_ms.p50", median(lag), unitMS, len(lag)},
	)
	hits := counterDelta(before, after, "jobs_cache_hits_total")
	misses := counterDelta(before, after, "jobs_cache_misses_total")
	coalesced := counterDelta(before, after, "jobs_coalesced_total")
	submitted := counterDelta(before, after, "jobs_submitted_total")
	o.addLayer(
		metric{"jobs.cache_hit_ratio", hits / max(hits+misses, 1), unitX, 0},
		metric{"jobs.coalesced_ratio", coalesced / max(submitted, 1), unitX, 0},
		metric{"jobs.rejected", counterDelta(before, after, "jobs_rejected_total"), unitN, 0},
		metric{"httpapi.rejected", counterDelta(before, after, "httpapi_requests_rejected_total"), unitN, 0},
		metric{"serve.gen_late_ms.max", maxOf(late), unitMS, len(late)},
	)
}

// medianOf times f reps times and returns the median in microseconds.
func medianOf(reps int, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := timeIt(f)
		if err != nil {
			return 0, err
		}
		xs = append(xs, us(d))
	}
	return median(xs), nil
}

// allocsOf runs f twice with the collector off and on one P, and
// returns the heap allocations and bytes of the second call. The first
// call refills the solver and simulator pools a collection may have
// emptied, and one P keeps every pool lookup on the same per-P cache,
// so the counts repeat from run to run.
func allocsOf(f func() error) (allocs, bytes float64, err error) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	if err := f(); err != nil {
		return 0, 0, err
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

// counterTotal sums every series of a counter in this process.
func counterTotal(name string) float64 {
	var v float64
	for _, s := range obs.Default().Snapshot() {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

const probeReps = 200

// probeSeed fixes the probes' inputs, so their counts repeat exactly
// from run to run and commit to commit.
const probeSeed = 2004

// probeLayers measures the analytic, simulation and document layers
// directly and returns the in-process jsas.Solve mean over the Table 3
// grid in microseconds.
func probeLayers(o *outcome) (float64, error) {
	inproc, err := probeAnalytic(o)
	if err != nil {
		return 0, err
	}
	if err := probeSimulation(o); err != nil {
		return 0, err
	}
	return inproc, probeDocuments(o)
}

func probeAnalytic(o *outcome) (float64, error) {
	p := jsas.DefaultParams()
	n := jsas.Config1.ASInstances
	var asS, hadbS *reward.Structure
	buildAS, err := medianOf(probeReps, func() (err error) { asS, err = jsas.BuildAppServer(p, n); return })
	if err != nil {
		return 0, err
	}
	buildHADB, err := medianOf(probeReps, func() (err error) { hadbS, err = jsas.BuildHADBPair(p); return })
	if err != nil {
		return 0, err
	}
	s := ctmc.NewSolver()
	opts := hier.Options{Solve: ctmc.SolveOptions{Solver: s}}
	top, err := jsas.Components(jsas.Config1, p)
	if err != nil {
		return 0, err
	}
	var ev *hier.Evaluation
	evaluate, err := medianOf(probeReps, func() (err error) { ev, err = hier.Evaluate(top, nil, opts); return })
	if err != nil {
		return 0, err
	}
	steady := map[string]float64{}
	for name, m := range map[string]*ctmc.Model{"as": asS.Model(), "hadb": hadbS.Model(), "top": ev.Structure.Model()} {
		if steady[name], err = medianOf(probeReps, func() error {
			_, err := s.SteadyState(m, ctmc.SolveOptions{})
			return err
		}); err != nil {
			return 0, err
		}
	}
	solveC1, err := medianOf(probeReps, func() error { _, err := jsas.Solve(jsas.Config1, p); return err })
	if err != nil {
		return 0, err
	}
	var grid []float64
	var gridSum float64
	for rep := 0; rep < probeReps/len(table3Rows); rep++ {
		for _, row := range table3Rows {
			d, err := timeIt(func() error { _, err := jsas.Solve(row.cfg, p); return err })
			if err != nil {
				return 0, err
			}
			grid = append(grid, us(d))
			gridSum += us(d)
		}
	}
	solveAllocs, solveBytes, err := allocsOf(func() error {
		for _, row := range table3Rows {
			if _, err := jsas.Solve(row.cfg, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	nGrid := float64(len(table3Rows))

	uncOpts := uncertainty.Options{Samples: uncertaintySamples, Seed: probeSeed}
	runUnc := func() error {
		_, err := uncertainty.Run(jsas.PaperUncertaintyRanges(), jsas.UncertaintySolver(jsas.Config1, p), uncOpts)
		return err
	}
	uncAllocs, uncBytes, err := allocsOf(runUnc)
	if err != nil {
		return 0, err
	}
	solves := counterTotal("ctmc_solves_total")
	unc, err := timeIt(runUnc)
	if err != nil {
		return 0, err
	}
	solves = counterTotal("ctmc_solves_total") - solves
	nSamples := float64(uncertaintySamples)

	var pts []sensitivity.Point
	sweep, err := timeIt(func() (err error) {
		pts, err = sensitivity.Sweep(0.5, 3, sweepSteps, jsas.TstartLongSweepSolver(jsas.Config1, p))
		return
	})
	if err != nil {
		return 0, err
	}

	o.addLayer(
		metric{"jsas.build_us.as", buildAS, unitUS, probeReps},
		metric{"jsas.build_us.hadb", buildHADB, unitUS, probeReps},
		metric{"ctmc.steady_us.as", steady["as"], unitUS, probeReps},
		metric{"ctmc.steady_us.hadb", steady["hadb"], unitUS, probeReps},
		metric{"ctmc.steady_us.top", steady["top"], unitUS, probeReps},
		metric{"hier.evaluate_us", evaluate, unitUS, probeReps},
		metric{"hier.self_us", evaluate - buildAS - buildHADB - steady["as"] - steady["hadb"] - steady["top"], unitUS, probeReps},
		metric{"jsas.solve_us", median(grid), unitUS, len(grid)},
		metric{"jsas.self_us", solveC1 - evaluate, unitUS, probeReps},
		metric{"jsas.allocs_per_solve", solveAllocs / nGrid, unitN, len(table3Rows)},
		metric{"jsas.bytes_per_solve", solveBytes / nGrid, unitB, len(table3Rows)},
		metric{"uncertainty.sample_us", us(unc) / nSamples, unitUS, uncertaintySamples},
		metric{"uncertainty.allocs_per_sample", uncAllocs / nSamples, unitN, uncertaintySamples},
		metric{"uncertainty.bytes_per_sample", uncBytes / nSamples, unitB, uncertaintySamples},
		metric{"ctmc.solves_per_sample", solves / nSamples, unitN, uncertaintySamples},
		metric{"sensitivity.point_us", us(sweep) / float64(len(pts)), unitUS, len(pts)},
	)
	return gridSum / float64(len(grid)), nil
}

// probeInjections is the campaign size of each per-class probe.
const probeInjections = 10000

func probeSimulation(o *outcome) error {
	domains, err := loadDomains()
	if err != nil {
		return err
	}
	p := jsas.DefaultParams()
	newUS, err := medianOf(probeReps, func() error {
		c, err := testbed.New(testbed.Options{Config: jsas.Config1, Params: p, Seed: 1, Domains: domains})
		if err != nil {
			return err
		}
		c.Close()
		return nil
	})
	if err != nil {
		return err
	}
	o.addLayer(metric{"testbed.cluster_new_us", newUS, unitUS, probeReps})

	seed := int64(probeSeed)
	for _, class := range []struct {
		name   string
		cc, pt *float64
	}{
		{"independent", nil, nil},
		{"common_cause", faultinject.Fraction(1), nil},
		{"partition", nil, faultinject.Fraction(1)},
	} {
		opts := faultinject.Options{Config: jsas.Config1, Params: p, Seed: seed, Injections: probeInjections,
			Domains: domains, CommonCauseFraction: class.cc, PartitionFraction: class.pt}
		run := func() error { _, err := faultinject.Run(opts); return err }
		allocs, bytes, err := allocsOf(run)
		if err != nil {
			return fmt.Errorf("%s probe: %w", class.name, err)
		}
		d, err := timeIt(run)
		if err != nil {
			return fmt.Errorf("%s probe: %w", class.name, err)
		}
		o.addLayer(
			metric{"faultinject.injection_us." + class.name, us(d) / probeInjections, unitUS, probeInjections},
			metric{"faultinject.bytes_per_injection." + class.name, bytes / probeInjections, unitB, probeInjections},
			metric{"faultinject.allocs_per_injection." + class.name, allocs / probeInjections, unitN, probeInjections},
		)
	}

	// One workload campaign, replica by replica and then replicated at
	// parallelism 1 and 2.
	ro := campaignOptions(domains, seed, 1)
	var replicas []float64
	var events float64
	var sum time.Duration
	for r := 0; r < ro.Replicas; r++ {
		opts := ro.Options
		opts.Seed = faultinject.ReplicaSeed(seed, r)
		opts.Injections = ro.Injections / ro.Replicas
		if r < ro.Injections%ro.Replicas {
			opts.Injections++
		}
		ev0 := counterTotal("testbed_events_total")
		d, err := timeIt(func() error { _, err := faultinject.Run(opts); return err })
		if err != nil {
			return fmt.Errorf("replica %d probe: %w", r, err)
		}
		events += counterTotal("testbed_events_total") - ev0
		replicas = append(replicas, ms(d))
		sum += d
	}
	serial, err := timeIt(func() error { _, err := faultinject.RunReplicated(ro); return err })
	if err != nil {
		return err
	}
	ro.Parallelism = campaignParallelism
	parallel, err := timeIt(func() error { _, err := faultinject.RunReplicated(ro); return err })
	if err != nil {
		return err
	}
	o.addLayer(
		metric{"des.events_per_injection", events / float64(ro.Injections), unitN, ro.Injections},
		metric{"des.event_ns", float64(sum) / events, unitNS, int(events)},
		metric{"faultinject.replica_ms.min", percentile(replicas, 0), unitMS, len(replicas)},
		metric{"faultinject.replica_ms.max", maxOf(replicas), unitMS, len(replicas)},
		metric{"faultinject.merge_ms", ms(serial - sum), unitMS, 1},
		metric{"pool.parallel_speedup", float64(serial) / float64(parallel), unitX, 1},
	)
	return nil
}

func probeDocuments(o *outcome) error {
	in, err := loadServeInputs()
	if err != nil {
		return err
	}
	flat, err := medianOf(probeReps, func() error { _, err := spec.Parse(bytes.NewReader(in.flat)); return err })
	if err != nil {
		return err
	}
	hierUS, err := medianOf(probeReps, func() error { _, err := spec.ParseHier(bytes.NewReader(in.hier)); return err })
	if err != nil {
		return err
	}
	o.addLayer(
		metric{"spec.parse_us.flat", flat, unitUS, probeReps},
		metric{"spec.parse_us.hier", hierUS, unitUS, probeReps},
	)
	for _, n := range []int{10, 25, 40} {
		doc, err := spec.Parse(bytes.NewReader(quorumDocument(n)))
		if err != nil {
			return fmt.Errorf("quorum n=%d: %w", n, err)
		}
		d, err := medianOf(20, func() error {
			_, err := doc.SolveBackend(context.Background(), backend.KindBayes, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("bayes n=%d: %w", n, err)
		}
		o.addLayer(metric{fmt.Sprintf("bayes.solve_ms.n%d", n), d / 1000, unitMS, 20})
	}
	return nil
}
