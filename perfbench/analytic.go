package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/jsas"
	"repro/internal/sensitivity"
	"repro/internal/trace"
	"repro/internal/uncertainty"
)

// The paper-analytic workload: one closed-loop caller, in process, runs
// the paper's full analytic reproduction per iteration — Table 2,
// the Table 3 grid, the Figure 5/6 Tstart_long sweeps and the Figure 7/8
// uncertainty analyses — on the analytic ladder alone.

const (
	sweepSteps         = 10
	uncertaintySamples = 1000
)

var table2Configs = []jsas.Config{jsas.Config1, jsas.Config2}

// table3Rows are the paper's Table 3 values with the tolerances of the
// repository's acceptance suite.
var table3Rows = []struct {
	cfg      jsas.Config
	availPct float64
	ydMin    float64
	mtbfH    float64
}{
	{jsas.Config{ASInstances: 1}, 99.9629, 195, 168},
	{jsas.Config{ASInstances: 2, HADBPairs: 2, HADBSpares: 2}, 99.99933, 3.49, 89980},
	{jsas.Config{ASInstances: 4, HADBPairs: 4, HADBSpares: 2}, 99.99956, 2.29, 229326},
	{jsas.Config{ASInstances: 6, HADBPairs: 6, HADBSpares: 2}, 99.99934, 3.44, 152889},
	{jsas.Config{ASInstances: 8, HADBPairs: 8, HADBSpares: 2}, 99.99912, 4.58, 114669},
	{jsas.Config{ASInstances: 10, HADBPairs: 10, HADBSpares: 2}, 99.99891, 5.73, 91736},
}

// reproduction holds one iteration's outputs.
type reproduction struct {
	table2 []*jsas.SystemResult
	table3 []*jsas.SystemResult
	sweeps [][]sensitivity.Point
	unc    []*uncertainty.Result
}

// reproduce runs one full reproduction, timing the Table 3 grid on its
// own. With a recorder, every call into a layer gets a span under root;
// with rec == nil the span calls are no-ops.
func reproduce(p jsas.Params, uncSeed int64, rec *trace.Recorder, root *trace.Active) (*reproduction, time.Duration, error) {
	out := &reproduction{}
	solve := func(parent *trace.Active, cfg jsas.Config) (*jsas.SystemResult, error) {
		sp := rec.Start("jsas.solve", parent, trace.String("config", cfg.String()))
		defer sp.End()
		return jsas.Solve(cfg, p)
	}

	sec := rec.Start("analytic.table2", root)
	for _, cfg := range table2Configs {
		r, err := solve(sec, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("table 2 %v: %w", cfg, err)
		}
		out.table2 = append(out.table2, r)
	}
	sec.End()

	sec = rec.Start("analytic.table3", root)
	t0 := time.Now()
	for _, row := range table3Rows {
		r, err := solve(sec, row.cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("table 3 %v: %w", row.cfg, err)
		}
		out.table3 = append(out.table3, r)
	}
	table3 := time.Since(t0)
	sec.End()

	sec = rec.Start("analytic.fig56", root)
	for _, cfg := range table2Configs {
		sp := rec.Start("sensitivity.sweep", sec, trace.String("config", cfg.String()))
		solver := jsas.TstartLongSweepSolver(cfg, p)
		if rec != nil {
			inner := solver
			solver = func(v float64) (float64, float64, error) {
				pt := rec.Start("jsas.sweep_point", sp)
				defer pt.End()
				return inner(v)
			}
		}
		pts, err := sensitivity.Sweep(0.5, 3, sweepSteps, solver)
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("figure 5/6 sweep %v: %w", cfg, err)
		}
		out.sweeps = append(out.sweeps, pts)
	}
	sec.End()

	sec = rec.Start("analytic.fig78", root)
	for i, cfg := range table2Configs {
		res, err := figure78(cfg, p, uncSeed+int64(i), rec, sec)
		if err != nil {
			return nil, 0, err
		}
		out.unc = append(out.unc, res)
	}
	sec.End()
	return out, table3, nil
}

// figure78 runs one single-worker uncertainty analysis.
func figure78(cfg jsas.Config, p jsas.Params, seed int64, rec *trace.Recorder, parent *trace.Active) (*uncertainty.Result, error) {
	sp := rec.Start("uncertainty.run", parent, trace.String("config", cfg.String()))
	defer sp.End()
	res, err := uncertainty.Run(jsas.PaperUncertaintyRanges(), jsas.UncertaintySolver(cfg, p),
		uncertainty.Options{Samples: uncertaintySamples, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("figure 7/8 %v: %w", cfg, err)
	}
	return res, nil
}

// checkReproduction compares one iteration against the paper with the
// acceptance suite's tolerances.
func checkReproduction(o *outcome, r *reproduction) {
	c1, c2 := r.table2[0], r.table2[1]
	o.check(math.Abs(c1.Availability-0.9999933) <= 5e-7, "Config 1 availability %.7f, paper 0.9999933", c1.Availability)
	o.check(math.Abs(c1.YearlyDowntimeMinutes-3.5) <= 0.15, "Config 1 downtime %.3f, paper 3.5", c1.YearlyDowntimeMinutes)
	o.check(math.Abs(c1.DowntimeASMinutes-2.35) <= 0.1 && math.Abs(c1.DowntimeHADBMinutes-1.15) <= 0.1,
		"Config 1 split %.2f/%.2f, paper 2.35/1.15", c1.DowntimeASMinutes, c1.DowntimeHADBMinutes)
	o.check(math.Abs(c2.Availability-0.9999956) <= 4e-7, "Config 2 availability %.7f, paper 0.9999956", c2.Availability)
	o.check(math.Abs(c2.YearlyDowntimeMinutes-2.3) <= 0.12, "Config 2 downtime %.3f, paper 2.3", c2.YearlyDowntimeMinutes)
	o.check(c2.DowntimeHADBMinutes/c2.YearlyDowntimeMinutes >= 0.999, "Config 2 is not HADB-dominated")
	for i, row := range table3Rows {
		res := r.table3[i]
		o.check(math.Abs(res.Availability*100-row.availPct) <= 5e-5*row.availPct,
			"Table 3 %v availability %.5f%%, paper %.5f%%", row.cfg, res.Availability*100, row.availPct)
		o.check(math.Abs(res.YearlyDowntimeMinutes-row.ydMin) <= 0.05*row.ydMin+0.05,
			"Table 3 %v downtime %.2f, paper %.2f", row.cfg, res.YearlyDowntimeMinutes, row.ydMin)
		o.check(math.Abs(res.MTBFHours-row.mtbfH) <= 0.04*row.mtbfH,
			"Table 3 %v MTBF %.0f, paper %.0f", row.cfg, res.MTBFHours, row.mtbfH)
	}
	lost := false
	for _, pt := range r.sweeps[0] {
		o.check(pt.Value > 2 || pt.Availability >= 0.99999, "Figure 5 lost five nines at %.2f h", pt.Value)
		lost = lost || pt.Availability < 0.99999
	}
	o.check(lost, "Figure 5 never lost five nines by 3 h")
	for _, pt := range r.sweeps[1] {
		o.check(pt.Availability >= 0.999995, "Figure 6 below 99.9995%% at %.2f h", pt.Value)
	}
	f7, f8 := r.unc[0], r.unc[1]
	o.check(math.Abs(f7.Summary.Mean-3.78) <= 0.45, "Figure 7 mean %.2f, paper 3.78", f7.Summary.Mean)
	o.check(math.Abs(f8.Summary.Mean-2.99) <= 0.4, "Figure 8 mean %.2f, paper 2.99", f8.Summary.Mean)
}

// fiveNines pools the Figure 7/8 samples of a run. One 1000-sample
// analysis estimates the five-nines fraction with a standard error near
// 0.012, so the acceptance suite's floors (0.78 and 0.85, about three
// errors below the Figure 7 value) would fail now and then over the
// hundreds of fresh seeds a run draws; the pooled fraction is checked
// against them instead.
type fiveNines struct{ below, n [2]int }

func (f *fiveNines) add(r *reproduction) {
	for i, res := range r.unc {
		f.n[i] += len(res.Downtimes)
		f.below[i] += int(math.Round(res.FractionBelow(5.25) * float64(len(res.Downtimes))))
	}
}

func (f *fiveNines) check(o *outcome) {
	for i, floor := range []float64{0.78, 0.85} {
		frac := float64(f.below[i]) / float64(max(f.n[i], 1))
		o.check(frac >= floor, "Figure %d pooled five-nines fraction %.4f over %d samples, floor %.2f", 7+i, frac, f.n[i], floor)
	}
}

// sameUncertainty reports whether two analyses agree bit for bit.
func sameUncertainty(a, b *uncertainty.Result) bool {
	if a.Summary != b.Summary || len(a.Downtimes) != len(b.Downtimes) {
		return false
	}
	for i := range a.Downtimes {
		if math.Float64bits(a.Downtimes[i]) != math.Float64bits(b.Downtimes[i]) {
			return false
		}
	}
	return true
}

func runAnalytic(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}}
	var p jsas.Params
	uncSeed := func(i int) int64 { return splitmix(e.seed, int64(i)) }

	// Set-up: build the inputs and run one checked warm-up reproduction,
	// setupReps times; the median is setup_s.
	var setups []time.Duration
	for k := 0; k < setupReps; k++ {
		d, err := timeIt(func() error {
			p = jsas.DefaultParams()
			r, _, err := reproduce(p, uncSeed(-1-k), nil, nil)
			if err == nil {
				checkReproduction(o, r)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	repro := timing{name: "analytic.repro_ms"}
	table3 := timing{name: "analytic.table3_ms"}
	var first *uncertainty.Result
	var pooled fiveNines
	var rec *trace.Recorder
	var tracedRepro timing
	if e.traced {
		rec = newRecorder()
	}
	rss, err := startRSSSampler(0)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(e.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := e.traced && i%2 == 0
		var r *reproduction
		var t3 time.Duration
		d, err := timeIt(func() error {
			var on *trace.Recorder
			var root *trace.Active
			if traced {
				on = rec
				root = rec.Start("analytic.repro", nil, trace.Int("iteration", int64(i)))
				defer root.End()
			}
			var err error
			r, t3, err = reproduce(p, uncSeed(i), on, root)
			return err
		})
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "iteration %d: %v", i, err)
			continue
		}
		checkReproduction(o, r)
		pooled.add(r)
		if traced {
			tracedRepro.add(d)
			continue
		}
		repro.add(d)
		table3.add(t3)
		if first == nil {
			first = r.unc[0]
			// Same seed, same Figure 7: the repeat must be bit-identical.
			again, err := figure78(jsas.Config1, p, uncSeed(i), nil, nil)
			o.check(err == nil && sameUncertainty(first, again), "Figure 7 repeat with seed %d differs", uncSeed(i))
		}
	}
	pooled.check(o)
	if o.e2e[mRSS], err = rss.finish(); err != nil {
		return nil, err
	}
	o.e2e[mSetup] = setupMetric(setups)
	o.e2e[mOpP50] = rename(repro.p50(), mOpP50)
	o.e2e[mOpTail] = rename(repro.tail(900), mOpTail)
	o.e2e[mOp2P50] = rename(table3.p50(), mOp2P50)
	o.addDetail(o.e2e[mSetup], o.e2e[mRSS], repro.p50(), repro.tail(900), table3.p50())
	if e.traced {
		if err := finishTrace(e, o, rec, "paper-analytic", repro, tracedRepro); err != nil {
			return nil, err
		}
	}
	return o, nil
}
