package jsas

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ctmc"
	"repro/internal/sensitivity"
)

func TestIntervalAvailabilityBounds(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	steady, err := Solve(Config1, p)
	if err != nil {
		t.Fatal(err)
	}
	// Short mission from the working state: interval availability is
	// above steady state and below 1.
	short, err := IntervalAvailability(Config1, p, 24*time.Hour)
	if err != nil {
		t.Fatalf("IntervalAvailability(24h): %v", err)
	}
	if short.IntervalAvailability <= steady.Availability {
		t.Errorf("IA(24h) = %.9f should exceed steady %.9f",
			short.IntervalAvailability, steady.Availability)
	}
	if short.IntervalAvailability > 1 {
		t.Errorf("IA(24h) = %v > 1", short.IntervalAvailability)
	}
	if short.SteadyStateAvailability != steady.Availability {
		t.Error("steady-state mismatch in result")
	}
	if short.ExpectedDowntime < 0 || short.ExpectedDowntime > 24*time.Hour {
		t.Errorf("expected downtime %v out of range", short.ExpectedDowntime)
	}
}

func TestIntervalAvailabilityConvergesToSteadyState(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	steady, err := Solve(Config1, p)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(years int) float64 {
		res, err := IntervalAvailability(Config1, p, time.Duration(years)*365*24*time.Hour)
		if err != nil {
			t.Fatalf("IntervalAvailability(%dy): %v", years, err)
		}
		return res.IntervalAvailability - steady.Availability
	}
	// Starting from Ok, the transient excess ∫(A(s) − A∞)ds converges, so
	// IA(T) − A∞ decays as 1/T once T is many mean repair times long: a
	// 20-year gap is a tenth of the 2-year one. At ~2.5e-11 it is as small
	// as the round-off that plain sums over the uniformization series'
	// ~Λt terms would leave, so this also checks that those sums stay
	// accurate.
	gap2, gap20 := gap(2), gap(20)
	if gap20 <= 0 || gap20 > (1-steady.Availability)/2 {
		t.Errorf("IA(20y) − steady = %.3g, want small positive", gap20)
	}
	if r := 10 * gap20 / gap2; math.Abs(r-1) > 0.1 {
		t.Errorf("10·gap(20y)/gap(2y) = %.4f (gaps %.4g, %.4g), want within 10%% of 1", r, gap20, gap2)
	}
}

func TestIntervalAvailabilityMonotoneInMission(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	prev := 1.0
	for _, mission := range []time.Duration{
		6 * time.Hour, 48 * time.Hour, 30 * 24 * time.Hour, 365 * 24 * time.Hour,
	} {
		res, err := IntervalAvailability(Config1, p, mission)
		if err != nil {
			t.Fatalf("IntervalAvailability(%v): %v", mission, err)
		}
		if res.IntervalAvailability > prev+1e-12 {
			t.Errorf("IA(%v) = %.9f above previous %.9f (should decay)",
				mission, res.IntervalAvailability, prev)
		}
		prev = res.IntervalAvailability
	}
}

func TestIntervalAvailabilityValidation(t *testing.T) {
	t.Parallel()
	if _, err := IntervalAvailability(Config1, DefaultParams(), 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero mission: err = %v", err)
	}
	if _, err := IntervalAvailability(Config{}, DefaultParams(), time.Hour); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config: err = %v", err)
	}
}

func TestPerformabilityBelowAvailability(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 4} {
		res, err := SolveAppServerPerformability(DefaultParams(), n)
		if err != nil {
			t.Fatalf("SolveAppServerPerformability(%d): %v", n, err)
		}
		if res.ExpectedCapacity >= res.Availability {
			t.Errorf("n=%d: capacity %.9f should be below availability %.9f",
				n, res.ExpectedCapacity, res.Availability)
		}
		if res.CapacityLossMinutesPerYear <= 0 {
			t.Errorf("n=%d: capacity loss = %v, want > 0", n, res.CapacityLossMinutesPerYear)
		}
	}
}

// TestPerformabilityClosedForm2Instances: for n=2 the capacity reward is
// 1 in All_Work, 0.5 in the three one-down states, 0 in 2_Down, so
// E[capacity] = π_AllWork + 0.5(π_Rec+π_DS+π_DL).
func TestPerformabilityClosedForm2Instances(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	s, err := BuildAppServer(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	availRes, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Model()
	var halfMass, fullMass float64
	for _, st := range m.States() {
		switch m.Name(st) {
		case ASStateAllWork:
			fullMass = availRes.Pi[st]
		case as2Recovery, as2DownShort, as2DownLong:
			halfMass += availRes.Pi[st]
		}
	}
	want := fullMass + 0.5*halfMass
	res, err := SolveAppServerPerformability(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExpectedCapacity-want) > 1e-12 {
		t.Errorf("capacity = %.12f, want %.12f", res.ExpectedCapacity, want)
	}
	// The hidden capacity loss dwarfs the availability-visible downtime:
	// one instance restarting costs half capacity but zero "downtime".
	availLoss := (1 - res.Availability) * 525600
	if res.CapacityLossMinutesPerYear < 10*availLoss {
		t.Errorf("capacity loss %.2f min/yr should dwarf availability loss %.2f",
			res.CapacityLossMinutesPerYear, availLoss)
	}
}

func TestPerformabilityValidation(t *testing.T) {
	t.Parallel()
	if _, err := BuildAppServerPerformability(DefaultParams(), 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("n=0: err = %v", err)
	}
	bad := DefaultParams()
	bad.FIR = 5
	if _, err := BuildAppServerPerformability(bad, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad params: err = %v", err)
	}
}

// TestImportanceRanking: for Config 2 (HADB-dominated) the HADB and FIR
// parameters must outrank the AS-only parameters; Tstart_long must be
// essentially irrelevant (the flat Figure 6).
func TestImportanceRanking(t *testing.T) {
	t.Parallel()
	base := DefaultParams()
	entries, err := sensitivity.Importance(PaperImportanceRanges(base), ImportanceSolver(Config2, base))
	if err != nil {
		t.Fatalf("Importance: %v", err)
	}
	if len(entries) != 6 {
		t.Fatalf("entries = %d, want 6", len(entries))
	}
	rank := make(map[string]int, len(entries))
	swing := make(map[string]float64, len(entries))
	for i, e := range entries {
		rank[e.Name] = i
		swing[e.Name] = e.Swing
	}
	if rank[ParamFIR] > 1 {
		t.Errorf("FIR rank = %d, want top-2 for Config 2 (swings: %v)", rank[ParamFIR], swing)
	}
	if rank[ParamTstartLong] < 4 {
		t.Errorf("Tstart_long rank = %d, want near-last for Config 2", rank[ParamTstartLong])
	}
	if math.Abs(swing[ParamTstartLong]) > 1e-3 {
		t.Errorf("Tstart_long swing = %v, want ~0", swing[ParamTstartLong])
	}
}

// TestImportanceConfig1TstartLongMatters: for Config 1 the paper sweeps
// Tstart_long precisely because it moves availability; its swing must be
// material (≈ 3.4 min across 0.5–3 h per Figure 5).
func TestImportanceConfig1TstartLongMatters(t *testing.T) {
	t.Parallel()
	base := DefaultParams()
	entries, err := sensitivity.Importance(PaperImportanceRanges(base), ImportanceSolver(Config1, base))
	if err != nil {
		t.Fatalf("Importance: %v", err)
	}
	for _, e := range entries {
		if e.Name != ParamTstartLong {
			continue
		}
		if e.Swing < 2 || e.Swing > 5 {
			t.Errorf("Tstart_long swing = %.2f min, want ~3.4 (Figure 5 span)", e.Swing)
		}
		return
	}
	t.Fatal("Tstart_long missing from importance entries")
}

func TestImportanceValidation(t *testing.T) {
	t.Parallel()
	solver := ImportanceSolver(Config1, DefaultParams())
	if _, err := sensitivity.Importance(nil, solver); !errors.Is(err, sensitivity.ErrBadSweep) {
		t.Errorf("no params: err = %v", err)
	}
	if _, err := sensitivity.Importance(PaperImportanceRanges(DefaultParams()), nil); !errors.Is(err, sensitivity.ErrBadSweep) {
		t.Errorf("nil solver: err = %v", err)
	}
	bad := []sensitivity.ImportanceRange{{Name: "x", Base: 5, Low: 0, High: 1}}
	if _, err := sensitivity.Importance(bad, solver); !errors.Is(err, sensitivity.ErrBadSweep) {
		t.Errorf("base outside range: err = %v", err)
	}
	dup := []sensitivity.ImportanceRange{
		{Name: "x", Base: 0.5, Low: 0, High: 1},
		{Name: "x", Base: 0.5, Low: 0, High: 1},
	}
	if _, err := sensitivity.Importance(dup, solver); !errors.Is(err, sensitivity.ErrBadSweep) {
		t.Errorf("duplicate: err = %v", err)
	}
}

func TestPerformabilityErrorPaths(t *testing.T) {
	t.Parallel()
	bad := DefaultParams()
	bad.SessionRecovery = 0
	if _, err := SolveAppServerPerformability(bad, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad params: err = %v", err)
	}
	if _, err := SolveAppServerPerformability(DefaultParams(), 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("n=0: err = %v", err)
	}
	// 1-instance performability: capacity == availability (no degraded
	// partial-capacity states: the instance is either serving or not).
	res, err := SolveAppServerPerformability(DefaultParams(), 1)
	if err != nil {
		t.Fatalf("SolveAppServerPerformability(1): %v", err)
	}
	if math.Abs(res.ExpectedCapacity-res.Availability) > 1e-12 {
		t.Errorf("n=1: capacity %v != availability %v", res.ExpectedCapacity, res.Availability)
	}
}

func TestUncertaintySolverUnknownName(t *testing.T) {
	t.Parallel()
	solver := UncertaintySolver(Config1, DefaultParams())
	if _, err := solver(map[string]float64{"nope": 1}); err == nil {
		t.Error("unknown parameter accepted")
	}
}

func TestFractionShortStartZeroRates(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	p.ASFailuresPerYear = 0
	p.ASOSFailuresPerYear = 0
	p.ASHWFailuresPerYear = 0
	if got := p.fractionShortStart(); got != 0 {
		t.Errorf("fractionShortStart with zero rates = %v, want 0", got)
	}
}
