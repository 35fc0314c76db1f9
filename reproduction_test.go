package avail

// Acceptance suite: every headline number of the paper asserted in one
// place against the public API. EXPERIMENTS.md references this file as the
// canonical verification entry point; the per-module tests under
// internal/ cover the same ground at finer grain.

import (
	"math"
	"testing"
	"time"

	"repro/internal/jsas"
	"repro/internal/trace"
)

func solveAccept(t *testing.T, cfg Config) *SystemResult {
	t.Helper()
	res, err := SolveJSAS(cfg, DefaultParams())
	if err != nil {
		t.Fatalf("SolveJSAS(%v): %v", cfg, err)
	}
	return res
}

func TestPaperTable2(t *testing.T) {
	t.Parallel()
	c1 := solveAccept(t, Config1)
	if math.Abs(c1.Availability-0.9999933) > 5e-7 {
		t.Errorf("Config 1 availability = %.7f, paper 0.9999933", c1.Availability)
	}
	if math.Abs(c1.YearlyDowntimeMinutes-3.5) > 0.15 {
		t.Errorf("Config 1 YD = %.2f, paper 3.5", c1.YearlyDowntimeMinutes)
	}
	if math.Abs(c1.DowntimeASMinutes-2.35) > 0.1 || math.Abs(c1.DowntimeHADBMinutes-1.15) > 0.1 {
		t.Errorf("Config 1 split = %.2f/%.2f, paper 2.35/1.15",
			c1.DowntimeASMinutes, c1.DowntimeHADBMinutes)
	}
	c2 := solveAccept(t, Config2)
	if math.Abs(c2.Availability-0.9999956) > 4e-7 {
		t.Errorf("Config 2 availability = %.7f, paper 0.9999956", c2.Availability)
	}
	if math.Abs(c2.YearlyDowntimeMinutes-2.3) > 0.12 {
		t.Errorf("Config 2 YD = %.2f, paper 2.3", c2.YearlyDowntimeMinutes)
	}
	if c2.DowntimeHADBMinutes/c2.YearlyDowntimeMinutes < 0.999 {
		t.Error("Config 2 should be HADB-dominated (paper: 99.99%)")
	}
}

func TestPaperTable3(t *testing.T) {
	t.Parallel()
	rows := []struct {
		cfg      Config
		availPct float64
		ydMin    float64
		mtbfH    float64
	}{
		{Config{ASInstances: 1}, 99.9629, 195, 168},
		{Config{ASInstances: 2, HADBPairs: 2, HADBSpares: 2}, 99.99933, 3.49, 89980},
		{Config{ASInstances: 4, HADBPairs: 4, HADBSpares: 2}, 99.99956, 2.29, 229326},
		{Config{ASInstances: 6, HADBPairs: 6, HADBSpares: 2}, 99.99934, 3.44, 152889},
		{Config{ASInstances: 8, HADBPairs: 8, HADBSpares: 2}, 99.99912, 4.58, 114669},
		{Config{ASInstances: 10, HADBPairs: 10, HADBSpares: 2}, 99.99891, 5.73, 91736},
	}
	for _, row := range rows {
		row := row
		res := solveAccept(t, row.cfg)
		if math.Abs(res.Availability*100-row.availPct) > 5e-5*row.availPct {
			t.Errorf("%v: availability %.5f%%, paper %.5f%%",
				row.cfg, res.Availability*100, row.availPct)
		}
		if math.Abs(res.YearlyDowntimeMinutes-row.ydMin) > 0.05*row.ydMin+0.05 {
			t.Errorf("%v: YD %.2f, paper %.2f", row.cfg, res.YearlyDowntimeMinutes, row.ydMin)
		}
		if math.Abs(res.MTBFHours-row.mtbfH) > 0.04*row.mtbfH {
			t.Errorf("%v: MTBF %.0f, paper %.0f", row.cfg, res.MTBFHours, row.mtbfH)
		}
	}
}

func TestPaperFigure5and6(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// Figure 5: Config 1 loses five nines between 2 and 3 hours.
	pts1, err := SweepTstartLong(Config1, p, 0.5, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	lost := false
	for _, pt := range pts1 {
		if pt.Value <= 2 && pt.Availability < 0.99999 {
			t.Errorf("Config 1 lost five nines too early, at %.2f h", pt.Value)
		}
		if pt.Availability < 0.99999 {
			lost = true
		}
	}
	if !lost {
		t.Error("Config 1 never lost five nines by 3 h (paper: lost at ~2.5 h)")
	}
	// Figure 6: Config 2 keeps 99.9995% throughout.
	pts2, err := SweepTstartLong(Config2, p, 0.5, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts2 {
		if pt.Availability < 0.999995 {
			t.Errorf("Config 2 below 99.9995%% at %.2f h", pt.Value)
		}
	}
}

func TestPaperFigures7and8(t *testing.T) {
	t.Parallel()
	run := func(cfg Config) *UncertaintyResult {
		res, err := RunUncertainty(cfg, DefaultParams(), UncertaintyOptions{Samples: 1000, Seed: 2004})
		if err != nil {
			t.Fatalf("RunUncertainty: %v", err)
		}
		return res
	}
	f7 := run(Config1)
	if math.Abs(f7.Summary.Mean-3.78) > 0.45 {
		t.Errorf("Figure 7 mean = %.2f, paper 3.78", f7.Summary.Mean)
	}
	if frac := f7.FractionBelow(5.25); frac < 0.78 {
		t.Errorf("Figure 7 five-nines fraction = %.2f, paper > 0.80", frac)
	}
	f8 := run(Config2)
	if math.Abs(f8.Summary.Mean-2.99) > 0.4 {
		t.Errorf("Figure 8 mean = %.2f, paper 2.99", f8.Summary.Mean)
	}
	if frac := f8.FractionBelow(5.25); frac < 0.85 {
		t.Errorf("Figure 8 five-nines fraction = %.2f, paper > 0.90", frac)
	}
}

func TestPaperEquations(t *testing.T) {
	t.Parallel()
	// Equation (1): 3287 clean injections.
	c95, err := CoverageLowerBound(3287, 3287, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if c95.FIR > 0.001 {
		t.Errorf("Eq1 FIR@95%% = %.5f, paper < 0.001", c95.FIR)
	}
	c995, err := CoverageLowerBound(3287, 3287, 0.995)
	if err != nil {
		t.Fatal(err)
	}
	if c995.FIR > 0.002 {
		t.Errorf("Eq1 FIR@99.5%% = %.5f, paper < 0.002", c995.FIR)
	}
	// Equation (2): 48 instance-days, zero failures.
	exposure := 48 * 24 * time.Hour
	r95, err := FailureRateUpperBound(exposure, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(1/(r95.PerHour*24)-16) > 0.1 {
		t.Errorf("Eq2 @95%% = 1/%.1f d, paper 1/16", 1/(r95.PerHour*24))
	}
	r995, err := FailureRateUpperBound(exposure, 0, 0.995)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(1/(r995.PerHour*24)-9) > 0.15 {
		t.Errorf("Eq2 @99.5%% = 1/%.1f d, paper 1/9", 1/(r995.PerHour*24))
	}
}

func TestPaperConclusions(t *testing.T) {
	t.Parallel()
	// "Availability is significantly improved from a 1-instance
	// configuration to a 2-instance configuration ... by two 9's."
	one := solveAccept(t, Config{ASInstances: 1})
	two := solveAccept(t, Config1)
	if (1-two.Availability)*50 > (1 - one.Availability) {
		t.Errorf("redundancy gain < two nines: %v → %v", one.Availability, two.Availability)
	}
	// "The configuration with 4 AS instances and 4 HADB node pairs is the
	// optimal configuration."
	best := Config{}
	bestAvail := 0.0
	for _, cfg := range Table3Configs() {
		res := solveAccept(t, cfg)
		if res.Availability > bestAvail {
			bestAvail, best = res.Availability, cfg
		}
	}
	if best.ASInstances != 4 || best.HADBPairs != 4 {
		t.Errorf("optimal = %v, paper: 4 instances + 4 pairs", best)
	}
	// "The 99.999% availability level can no longer hold when the number
	// of HADB node pairs reaches 10."
	ten := solveAccept(t, Config{ASInstances: 10, HADBPairs: 10, HADBSpares: 2})
	if ten.Availability >= 0.99999 {
		t.Errorf("10 pairs kept five nines: %v", ten.Availability)
	}
	// "When the number of AS instances is 4 or above, the AS submodel's
	// yearly downtime is at the millisecond level."
	four, err := jsas.BuildAppServer(DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := four.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.YearlyDowntimeMinutes*60*1000 > 100 {
		t.Errorf("AS4 downtime = %.1f ms/yr, paper: millisecond level",
			res.YearlyDowntimeMinutes*60*1000)
	}
}

// TestPaperReproductionRecordsNoSpans: a full untraced reproduction —
// Tables 2 and 3, the Figure 5/6 sweeps and the 1,000-sample Figure 7/8
// analyses — adds no span to the process-wide trace ring. Not parallel,
// so no other test records meanwhile.
func TestPaperReproductionRecordsNoSpans(t *testing.T) {
	ring := trace.Default()
	before, dropped := len(ring.Spans()), ring.Dropped()
	p := DefaultParams()
	for _, n := range []int{1, 2, 4, 6, 8, 10} {
		cfg := Config{ASInstances: n, HADBPairs: n, HADBSpares: 2}
		if n == 1 {
			cfg = Config{ASInstances: 1}
		}
		solveAccept(t, cfg)
	}
	for _, cfg := range []Config{Config1, Config2} {
		solveAccept(t, cfg)
		if _, err := SweepTstartLong(cfg, p, 0.5, 3, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := RunUncertainty(cfg, p, UncertaintyOptions{Samples: 1000, Seed: 2004}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ring.Spans()); got != before || ring.Dropped() != dropped {
		t.Errorf("trace.Default() went from %d spans to %d (dropped %d → %d)", before, got, dropped, ring.Dropped())
	}
}
