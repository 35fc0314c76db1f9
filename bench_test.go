package avail

// Benchmark harness: one benchmark per table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// bench reports the reproduced headline metric alongside timing via
// b.ReportMetric, so `go test -bench .` regenerates the paper's rows.

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/assess"
	"repro/internal/ctmc"
	"repro/internal/des"
	"repro/internal/faultinject"
	"repro/internal/hier"
	"repro/internal/jsas"
	"repro/internal/progress"
	"repro/internal/reward"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/testbed"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// --- Table 2 ---

func benchmarkTable2(b *testing.B, cfg Config) {
	b.Helper()
	p := DefaultParams()
	var res *SystemResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = SolveJSAS(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.YearlyDowntimeMinutes, "YD-min/yr")
	b.ReportMetric(res.Availability*100, "avail-%")
}

func BenchmarkTable2Config1(b *testing.B) { benchmarkTable2(b, Config1) }
func BenchmarkTable2Config2(b *testing.B) { benchmarkTable2(b, Config2) }

// --- Table 3 ---

func BenchmarkTable3AllConfigurations(b *testing.B) {
	p := DefaultParams()
	configs := Table3Configs()
	var mtbf float64
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			res, err := SolveJSAS(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.ASInstances == 4 {
				mtbf = res.MTBFHours
			}
		}
	}
	b.ReportMetric(mtbf, "optimal-MTBF-h")
}

// --- Figures 5 and 6 (Tstart_long sensitivity sweeps) ---

func benchmarkSweep(b *testing.B, cfg Config) {
	b.Helper()
	p := DefaultParams()
	var pts []SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = SweepTstartLong(cfg, p, 0.5, 3.0, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((pts[0].Availability-pts[len(pts)-1].Availability)*1e6, "avail-drop-ppm")
}

func BenchmarkFigure5SweepConfig1(b *testing.B) { benchmarkSweep(b, Config1) }
func BenchmarkFigure6SweepConfig2(b *testing.B) { benchmarkSweep(b, Config2) }

// BenchmarkSweepParallel4Config1 drives the Figure 5 sweep through the
// parallel driver (compare with BenchmarkFigure5SweepConfig1; the outputs
// are identical at any parallelism).
func BenchmarkSweepParallel4Config1(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := SweepTstartLongWith(Config1, p, 0.5, 3.0, 10, SweepOptions{Parallelism: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 7 and 8 (uncertainty analysis, 1000 samples) ---

func benchmarkUncertainty(b *testing.B, cfg Config) {
	b.Helper()
	p := DefaultParams()
	var res *UncertaintyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunUncertainty(cfg, p, UncertaintyOptions{Samples: 1000, Seed: 2004})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Summary.Mean, "mean-YD-min/yr")
	b.ReportMetric(res.CIs[0.80].Low, "CI80-low")
	b.ReportMetric(res.CIs[0.80].High, "CI80-high")
}

func BenchmarkFigure7UncertaintyConfig1(b *testing.B) { benchmarkUncertainty(b, Config1) }
func BenchmarkFigure8UncertaintyConfig2(b *testing.B) { benchmarkUncertainty(b, Config2) }

// --- Section 3 measurements: longevity run and fault injection ---

// BenchmarkLongevityRun executes one simulated 7-day stability run
// (Table 1's environment, ~7M requests) per iteration.
func BenchmarkLongevityRun(b *testing.B) {
	var served float64
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(workload.RunOptions{
			Config:   Config1,
			Params:   DefaultParams(),
			Profile:  workload.Marketplace(),
			Duration: 7 * 24 * time.Hour,
			Seed:     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		served = res.RequestsServed
	}
	b.ReportMetric(served/1e6, "Mreq/run")
}

// BenchmarkFaultInjectionCampaign runs a 100-injection campaign per
// iteration (the paper's full 3,287-injection campaign is exercised in the
// test suite).
func BenchmarkFaultInjectionCampaign(b *testing.B) {
	p := DefaultParams()
	p.FIR = 0 // ground truth: the paper's testbed never failed to recover
	var rate float64
	for i := 0; i < b.N; i++ {
		rep, err := faultinject.Run(faultinject.Options{
			Config:     Config1,
			Params:     p,
			Seed:       int64(i),
			Injections: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = rep.SuccessRate()
	}
	b.ReportMetric(rate*100, "recovery-%")
}

// campaignOptions is the unsharded 2000-injection campaign (FIR = 0)
// that the campaign benchmarks and gates start from.
func campaignOptions(seed int64) faultinject.Options {
	p := DefaultParams()
	p.FIR = 0
	return faultinject.Options{Config: Config1, Params: p, Seed: seed, Injections: 2000}
}

// runCampaign runs one campaign and fails tb on error.
func runCampaign(tb testing.TB, opts faultinject.Options) *faultinject.Report {
	tb.Helper()
	rep, err := faultinject.Run(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// benchmarkCampaignReplicated runs a 2000-injection campaign sharded over
// the given replica count at the given worker count. Unsharded vs the
// replicated variants measures the wall-clock win of replicated
// measurement (sharding alone already wins: per-replica clusters keep the
// per-injection stats snapshots small); Serial vs Parallel4 isolates the
// multi-core speedup. The merged reports are identical by construction.
func benchmarkCampaignReplicated(b *testing.B, replicas, parallelism int) {
	b.Helper()
	var rate float64
	for i := 0; i < b.N; i++ {
		rep, err := faultinject.RunReplicated(faultinject.ReplicatedOptions{
			Options:     campaignOptions(int64(i)),
			Replicas:    replicas,
			Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = rep.SuccessRate()
	}
	b.ReportMetric(rate*100, "recovery-%")
}

func BenchmarkCampaignUnsharded(b *testing.B)           { benchmarkCampaignReplicated(b, 1, 1) }
func BenchmarkCampaignReplicatedSerial(b *testing.B)    { benchmarkCampaignReplicated(b, 4, 1) }
func BenchmarkCampaignReplicatedParallel4(b *testing.B) { benchmarkCampaignReplicated(b, 4, 4) }

// maxCampaignAllocs caps the allocations of one unsharded campaign. The
// pooled kernel runs it in ~9.2k; losing the Sim, cluster or event
// free-list reuse multiplies that and erodes the interactive-campaign
// latency budget. The campaign runs 2,000 injections, so the cap sits
// below the ~11.2k that one extra allocation per injection reaches.
const maxCampaignAllocs = 10000

func TestCampaignAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	opts := campaignOptions(0)
	n := testing.AllocsPerRun(1, func() { runCampaign(t, opts) })
	t.Logf("%v allocations", n)
	if n > maxCampaignAllocs {
		t.Errorf("one unsharded 2000-injection campaign allocates %v times, want ≤ maxCampaignAllocs (%d)",
			n, maxCampaignAllocs)
	}
}

// withTelemetry attaches a progress tracker (with the recovered-fraction
// running statistic) and a windowed availability time series to opts,
// exactly what the -progress and -timeseries CLI flags wire up.
func withTelemetry(opts faultinject.Options) faultinject.Options {
	opts.Progress = progress.New(int64(opts.Injections),
		progress.WithStat("recovered"), progress.WithUnit("inj"))
	opts.TimeSeries = testbed.NewTimeSeries(time.Hour, 0)
	return opts
}

// benchmarkCampaignTelemetry measures the live-telemetry tax on the
// unsharded 2000-injection campaign. Off is the plain campaign; On adds
// withTelemetry.
func benchmarkCampaignTelemetry(b *testing.B, telemetry bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opts := campaignOptions(int64(i))
		if telemetry {
			opts = withTelemetry(opts)
		}
		runCampaign(b, opts)
	}
}

func BenchmarkCampaignTelemetryOff(b *testing.B) { benchmarkCampaignTelemetry(b, false) }
func BenchmarkCampaignTelemetryOn(b *testing.B)  { benchmarkCampaignTelemetry(b, true) }

// Ratio gates. Raw ns/op swings ±30% on a busy host, so each gate times
// both sides back to back on the same seeds and keeps the best of
// pairedRounds rounds: a load spike inflates both sides of a round
// roughly equally. Each side of a round runs pairedCampaigns campaigns
// (~300 ms on the 2-CPU reference host), whatever -benchtime says. The
// gates are benchmarks, not tests, because their headroom is too small
// for a timing assertion running beside other packages' tests.
const (
	pairedRounds    = 3
	pairedCampaigns = 100
)

// pairedRatioGate logs each round's test/base wall-time ratio and fails
// b when the best exceeds bound, which the message calls boundName.
func pairedRatioGate(b *testing.B, boundName string, bound float64, test, base func(seed int64)) {
	b.Helper()
	if raceEnabled {
		b.Skip("the race detector distorts wall time")
	}
	timeSide := func(run func(seed int64)) time.Duration {
		runtime.GC()
		start := time.Now()
		for seed := int64(0); seed < pairedCampaigns; seed++ {
			run(seed)
		}
		return time.Since(start)
	}
	best := math.Inf(1)
	for round := 1; round <= pairedRounds; round++ {
		baseT := timeSide(base)
		testT := timeSide(test)
		r := float64(testT) / float64(baseT)
		b.Logf("round %d: %v against %v per campaign, ratio %.4f",
			round, testT/pairedCampaigns, baseT/pairedCampaigns, r)
		best = min(best, r)
	}
	b.ReportMetric(best, "best-ratio")
	if best > bound {
		b.Fatalf("best-of-%d ratio %.4f exceeds %s %.2f", pairedRounds, best, boundName, bound)
	}
}

// maxTelemetryRatio bounds the telemetry-on campaign against the plain
// one, so the live-telemetry plane stays within a few percent of free.
const maxTelemetryRatio = 1.10

// BenchmarkCampaignTelemetryGate fails when the best paired On/Off ratio
// exceeds maxTelemetryRatio.
func BenchmarkCampaignTelemetryGate(b *testing.B) {
	pairedRatioGate(b, "maxTelemetryRatio", maxTelemetryRatio,
		func(seed int64) { runCampaign(b, withTelemetry(campaignOptions(seed))) },
		func(seed int64) { runCampaign(b, campaignOptions(seed)) })
}

// benchDomains covers Config1 with a two-rack site for the correlated
// campaign benchmarks (same shape the -domains CLI examples use).
func benchDomains() []testbed.Domain {
	return []testbed.Domain{
		{Name: "site"},
		{Name: "rack-a", Parent: "site", AS: []int{0},
			HADB: []testbed.NodeRef{{Pair: 0, Slot: 0}, {Pair: 1, Slot: 0}}},
		{Name: "rack-b", Parent: "site", AS: []int{1},
			HADB: []testbed.NodeRef{{Pair: 0, Slot: 1}, {Pair: 1, Slot: 1}}},
	}
}

// correlatedOptions is the campaign with benchDomains and the given
// common-cause and partition fractions (0 leaves a fraction unset).
func correlatedOptions(seed int64, ccf, pf float64) faultinject.Options {
	opts := campaignOptions(seed)
	opts.Domains = benchDomains()
	if ccf > 0 {
		opts.CommonCauseFraction = &ccf
	}
	if pf > 0 {
		opts.PartitionFraction = &pf
	}
	return opts
}

// benchmarkCampaignCorrelated measures the correlated-injection tax on
// the unsharded 2000-injection campaign: the class-selector draw, domain
// burst/partition scheduling, and the per-cause accounting.
func benchmarkCampaignCorrelated(b *testing.B, ccf, pf float64) {
	b.Helper()
	var beta float64
	for i := 0; i < b.N; i++ {
		beta = runCampaign(b, correlatedOptions(int64(i), ccf, pf)).MeasuredCommonCauseFraction()
	}
	b.ReportMetric(beta, "measured-beta")
}

func BenchmarkCampaignCorrelated(b *testing.B) { benchmarkCampaignCorrelated(b, 0.15, 0.1) }
func BenchmarkCampaignPartition(b *testing.B)  { benchmarkCampaignCorrelated(b, 0, 0.25) }

// maxCorrelatedRatio bounds the correlated campaign against the
// independent one. The correlated path does more simulation work
// (multi-component bursts, partition heal events, per-cause accounting),
// so the bound is looser than maxTelemetryRatio, but it still catches
// per-injection overhead leaking into the independent-dominated mix.
const maxCorrelatedRatio = 1.25

// BenchmarkCampaignCorrelatedGate fails when the best paired
// correlated/independent ratio exceeds maxCorrelatedRatio.
func BenchmarkCampaignCorrelatedGate(b *testing.B) {
	pairedRatioGate(b, "maxCorrelatedRatio", maxCorrelatedRatio,
		func(seed int64) { runCampaign(b, correlatedOptions(seed, 0.15, 0.1)) },
		func(seed int64) { runCampaign(b, campaignOptions(seed)) })
}

// benchmarkLongevitySeries runs 4 × 7-day longevity runs at the given
// worker count (paper: "multiple 7-day duration runs", pooled).
func benchmarkLongevitySeries(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunSeriesWith(workload.SeriesOptions{
			Run: workload.RunOptions{
				Config:          Config1,
				Params:          DefaultParams(),
				Profile:         workload.Marketplace(),
				Duration:        7 * 24 * time.Hour,
				Seed:            int64(i),
				OrganicFailures: true, // event-rich runs, so timing reflects simulation work
			},
			Runs:        4,
			Parallelism: parallelism,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLongevitySeriesSerial(b *testing.B)    { benchmarkLongevitySeries(b, 1) }
func BenchmarkLongevitySeriesParallel4(b *testing.B) { benchmarkLongevitySeries(b, 4) }

// --- Ablation: dense (GTH) vs iterative steady-state solvers ---

func randomChain(b *testing.B, n int) *ctmc.Model {
	b.Helper()
	bld := ctmc.NewBuilder()
	states := make([]ctmc.State, n)
	for i := 0; i < n; i++ {
		states[i] = bld.State(stateName(i))
	}
	// Sparse ring + shortcuts: irreducible, ~4 transitions per state.
	for i := 0; i < n; i++ {
		bld.Transition(states[i], states[(i+1)%n], 1+float64(i%7))
		bld.Transition(states[(i+1)%n], states[i], 2+float64(i%5))
		bld.Transition(states[i], states[(i*7+3)%n], 0.5)
	}
	m, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func stateName(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "s0"
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{digits[i%10]}, buf...)
		i /= 10
	}
	return "s" + string(buf)
}

func benchmarkSteadyState(b *testing.B, n int, method ctmc.Method) {
	b.Helper()
	m := randomChain(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(ctmc.SolveOptions{Method: method, Tol: 1e-10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateDense50(b *testing.B)  { benchmarkSteadyState(b, 50, ctmc.MethodDense) }
func BenchmarkSteadyStateDense200(b *testing.B) { benchmarkSteadyState(b, 200, ctmc.MethodDense) }
func BenchmarkSteadyStateDense400(b *testing.B) { benchmarkSteadyState(b, 400, ctmc.MethodDense) }

// BenchmarkSteadyStateASChain solves the 10-instance AS cluster chain
// (221 states) densely through a reused Solver, as the compiled plan
// does. Unlike the random ring chains above it has the paper models'
// level structure: failures climb one level, repairs step back.
func BenchmarkSteadyStateASChain(b *testing.B) {
	s, err := jsas.BuildAppServer(DefaultParams(), 10)
	if err != nil {
		b.Fatal(err)
	}
	solver := ctmc.NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SteadyState(s.Model(), ctmc.SolveOptions{Method: ctmc.MethodDense}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateGS50(b *testing.B)     { benchmarkSteadyState(b, 50, ctmc.MethodGaussSeidel) }
func BenchmarkSteadyStateGS200(b *testing.B)    { benchmarkSteadyState(b, 200, ctmc.MethodGaussSeidel) }
func BenchmarkSteadyStateGS400(b *testing.B)    { benchmarkSteadyState(b, 400, ctmc.MethodGaussSeidel) }
func BenchmarkSteadyStatePower200(b *testing.B) { benchmarkSteadyState(b, 200, ctmc.MethodPower) }

// --- Ablation: hierarchical abstraction vs flat product model ---

func BenchmarkHierarchyConfig1(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := SolveJSAS(Config1, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatProductConfig1(b *testing.B) {
	p := DefaultParams()
	asS, err := jsas.BuildAppServer(p, 2)
	if err != nil {
		b.Fatal(err)
	}
	pairS, err := jsas.BuildHADBPair(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var availv float64
	for i := 0; i < b.N; i++ {
		flat, err := hier.Product(
			[]*reward.Structure{asS, pairS, pairS},
			func(up []bool) bool { return up[0] && up[1] && up[2] },
		)
		if err != nil {
			b.Fatal(err)
		}
		res, err := flat.Solve(ctmc.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		availv = res.Availability
	}
	b.ReportMetric((1-availv)*reward.MinutesPerYear, "flat-YD-min/yr")
}

// --- Ablation: uniform vs Latin-hypercube sampling ---

func benchmarkSampler(b *testing.B, s uncertainty.Sampler) {
	b.Helper()
	ranges := PaperUncertaintyRanges()
	solver := jsas.UncertaintySolver(Config1, DefaultParams())
	for i := 0; i < b.N; i++ {
		if _, err := uncertainty.Run(ranges, solver, uncertainty.Options{
			Samples: 200, Seed: int64(i), Sampler: s,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplerUniform(b *testing.B) { benchmarkSampler(b, uncertainty.SamplerUniform) }
func BenchmarkSamplerLatinHypercube(b *testing.B) {
	benchmarkSampler(b, uncertainty.SamplerLatinHypercube)
}

// --- Substrate microbenches ---

func BenchmarkDESEventThroughput(b *testing.B) {
	sim := des.New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		_ = sim.Schedule(time.Second, tick)
	}
	if err := sim.Schedule(time.Second, tick); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sim.Run(time.Duration(b.N) * time.Second); err != nil {
		b.Fatal(err)
	}
	if count < b.N-1 {
		b.Fatalf("processed %d events, want ≥ %d", count, b.N-1)
	}
}

func BenchmarkTestbedYearOfOperation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := testbed.New(testbed.Options{
			Config: Config1, Params: DefaultParams(), Seed: int64(i),
			OrganicFailures: true, Maintenance: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Run(8760 * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseMatVec(b *testing.B) {
	const n = 10000
	entries := make([]sparse.Entry, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries,
			sparse.Entry{Row: i, Col: (i + 1) % n, Val: 1},
			sparse.Entry{Row: i, Col: (i + n - 1) % n, Val: 2},
			sparse.Entry{Row: i, Col: i, Val: -3},
		)
	}
	m, err := sparse.NewCSR(n, n, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MulVec(x); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extended-analysis benches ---

func benchmarkIntervalAvailability(b *testing.B, mission time.Duration) {
	b.Helper()
	p := DefaultParams()
	var ia float64
	for i := 0; i < b.N; i++ {
		res, err := jsas.IntervalAvailability(Config1, p, mission)
		if err != nil {
			b.Fatal(err)
		}
		ia = res.IntervalAvailability
	}
	b.ReportMetric(ia*100, "interval-avail-%")
}

func BenchmarkIntervalAvailability24h(b *testing.B) {
	benchmarkIntervalAvailability(b, 24*time.Hour)
}

func BenchmarkIntervalAvailability1y(b *testing.B) {
	benchmarkIntervalAvailability(b, 365*24*time.Hour)
}

// BenchmarkHierDocumentSolve loads and solves the shipped JSON hierarchy.
func BenchmarkHierDocumentSolve(b *testing.B) {
	data, err := os.ReadFile("models/jsas-config1.json")
	if err != nil {
		b.Fatal(err)
	}
	doc, err := spec.ParseHier(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doc.Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLumpProduct reduces a 3-replica product model.
func BenchmarkLumpProduct(b *testing.B) {
	p := DefaultParams()
	pairS, err := jsas.BuildHADBPair(p)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := hier.Product(
		[]*reward.Structure{pairS, pairS, pairS},
		func(up []bool) bool { return up[0] && up[1] && up[2] },
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		lumped, _, err := flat.Lumped()
		if err != nil {
			b.Fatal(err)
		}
		states = lumped.Model().NumStates()
	}
	b.ReportMetric(float64(flat.Model().NumStates()), "flat-states")
	b.ReportMetric(float64(states), "lumped-states")
}

// BenchmarkAssessmentReport generates the full Markdown assessment.
func BenchmarkAssessmentReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := assess.Run(assess.Request{
			Config: Config1, Params: DefaultParams(),
			UncertaintySamples: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		var sink bytes.Buffer
		if err := rep.WriteMarkdown(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUncertaintyParallel4 measures the worker-pool speedup of the
// Monte-Carlo analysis (compare with BenchmarkFigure7UncertaintyConfig1).
func BenchmarkUncertaintyParallel4(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := uncertainty.Run(
			PaperUncertaintyRanges(),
			jsas.UncertaintySolver(Config1, p),
			uncertainty.Options{Samples: 1000, Seed: 2004, Parallelism: 4},
		); err != nil {
			b.Fatal(err)
		}
	}
}
