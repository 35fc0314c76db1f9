package jsas

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"time"

	"repro/internal/ctmc"
	"repro/internal/hier"
	"repro/internal/reward"
)

func TestDefaultParamsValid(t *testing.T) {
	t.Parallel()
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidateCatchesBadValues(t *testing.T) {
	t.Parallel()
	mods := []struct {
		name string
		mod  func(*Params)
	}{
		{"negative HADB rate", func(p *Params) { p.HADBFailuresPerYear = -1 }},
		{"FIR ≥ 1", func(p *Params) { p.FIR = 1 }},
		{"negative FIR", func(p *Params) { p.FIR = -0.1 }},
		{"zero restart", func(p *Params) { p.ASRestartShort = 0 }},
		{"zero repair", func(p *Params) { p.HADBRepair = 0 }},
		{"acceleration < 1", func(p *Params) { p.Acceleration = 0.5 }},
		{"zero session recovery", func(p *Params) { p.SessionRecovery = 0 }},
		{"zero restore", func(p *Params) { p.HADBRestore = 0 }},
	}
	for _, tc := range mods {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p := DefaultParams()
			tc.mod(&p)
			if err := p.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := (Config{ASInstances: 0}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("0 instances: err = %v", err)
	}
	if err := (Config{ASInstances: 1, HADBPairs: -1}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative pairs: err = %v", err)
	}
	if err := Config1.Validate(); err != nil {
		t.Errorf("Config1 invalid: %v", err)
	}
}

// TestHADBPairYearlyDowntime: the paper attributes ~0.575 min/yr of system
// downtime to each HADB pair (1.15 min for the 2 pairs of Config 1).
func TestHADBPairYearlyDowntime(t *testing.T) {
	t.Parallel()
	s, err := BuildHADBPair(DefaultParams())
	if err != nil {
		t.Fatalf("BuildHADBPair: %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	yd := res.YearlyDowntimeMinutes
	if yd < 0.5 || yd > 0.65 {
		t.Errorf("per-pair YD = %.3f min/yr, want ~0.575", yd)
	}
}

// TestHADBPairStates verifies the Figure 3 state space.
func TestHADBPairStates(t *testing.T) {
	t.Parallel()
	s, err := BuildHADBPair(DefaultParams())
	if err != nil {
		t.Fatalf("BuildHADBPair: %v", err)
	}
	m := s.Model()
	if m.NumStates() != 6 {
		t.Errorf("states = %d, want 6", m.NumStates())
	}
	for _, name := range []string{
		HADBStateOk, HADBStateRestartShort, HADBStateRestartLong,
		HADBStateRepair, HADBStateMaintenance, HADBStateDown,
	} {
		if _, err := m.StateByName(name); err != nil {
			t.Errorf("missing state %q", name)
		}
	}
	// Only 2_Down is a failure state.
	down := s.DownStates()
	if len(down) != 1 {
		t.Errorf("down states = %d, want 1", len(down))
	}
}

// TestHADBZeroFIR: with perfect coverage the only path to 2_Down is a
// second failure during recovery/maintenance; downtime drops sharply.
func TestHADBZeroFIR(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	base, err := BuildHADBPair(p)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.FIR = 0
	perfect, err := BuildHADBPair(p)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := perfect.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pres.YearlyDowntimeMinutes >= bres.YearlyDowntimeMinutes/3 {
		t.Errorf("FIR=0 downtime %.4f should be far below default %.4f",
			pres.YearlyDowntimeMinutes, bres.YearlyDowntimeMinutes)
	}
}

// TestAS2MatchesFigure4 verifies the 2-instance model has exactly the
// Figure 4 state space and transition structure.
func TestAS2MatchesFigure4(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	s, err := BuildAppServer(p, 2)
	if err != nil {
		t.Fatalf("BuildAppServer(2): %v", err)
	}
	m := s.Model()
	if m.NumStates() != 5 {
		t.Fatalf("states = %d, want 5 (Figure 4)", m.NumStates())
	}
	mustState := func(name string) ctmc.State {
		st, err := m.StateByName(name)
		if err != nil {
			t.Fatalf("missing state %q", name)
		}
		return st
	}
	allWork := mustState(ASStateAllWork)
	rec := mustState(as2Recovery)
	short := mustState(as2DownShort)
	long := mustState(as2DownLong)
	down := mustState(ASStateAllDown)

	la := p.asInstanceFailurePerHour()
	fss := p.fractionShortStart()
	checks := []struct {
		name     string
		from, to ctmc.State
		want     float64
	}{
		{"All_Work→Recovery = 2λ", allWork, rec, 2 * la},
		{"Recovery→1DownShort = FSS/Trec", rec, short, fss / p.SessionRecovery.Hours()},
		{"Recovery→1DownLong = (1-FSS)/Trec", rec, long, (1 - fss) / p.SessionRecovery.Hours()},
		{"1DownShort→All_Work = 1/Tss", short, allWork, 1 / p.ASRestartShort.Hours()},
		{"1DownLong→All_Work = 1/Tsl", long, allWork, 1 / p.ASRestartLong.Hours()},
		{"Recovery→Down = Acc·λ", rec, down, 2 * la},
		{"1DownShort→Down = Acc·λ", short, down, 2 * la},
		{"1DownLong→Down = Acc·λ", long, down, 2 * la},
		{"Down→All_Work = 1/Tstart_all", down, allWork, 1 / p.ASRestoreAll.Hours()},
	}
	for _, c := range checks {
		got := m.Rate(c.from, c.to)
		if math.Abs(got-c.want) > 1e-12*math.Max(1, c.want) {
			t.Errorf("%s: rate = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestAS2YearlyDowntime: the paper's Config 1 attributes 2.35 min/yr to
// the 2-instance AS submodel.
func TestAS2YearlyDowntime(t *testing.T) {
	t.Parallel()
	s, err := BuildAppServer(DefaultParams(), 2)
	if err != nil {
		t.Fatalf("BuildAppServer: %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.YearlyDowntimeMinutes < 2.2 || res.YearlyDowntimeMinutes > 2.5 {
		t.Errorf("AS2 YD = %.3f min/yr, want ~2.35", res.YearlyDowntimeMinutes)
	}
}

// TestAS1MatchesTable3Row1: 1 instance → 195 min/yr, MTBF 168 h,
// availability 99.9629%.
func TestAS1MatchesTable3Row1(t *testing.T) {
	t.Parallel()
	s, err := BuildAppServer(DefaultParams(), 1)
	if err != nil {
		t.Fatalf("BuildAppServer(1): %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(res.YearlyDowntimeMinutes-195) > 1 {
		t.Errorf("YD = %.1f min/yr, want ~195", res.YearlyDowntimeMinutes)
	}
	if math.Abs(res.MTBFHours-168) > 1.5 {
		t.Errorf("MTBF = %.1f h, want ~168", res.MTBFHours)
	}
	if math.Abs(res.Availability-0.999629) > 3e-6 {
		t.Errorf("availability = %.6f, want ~0.999629", res.Availability)
	}
}

// TestAS4DowntimeNegligible: the paper reports the 4-instance AS submodel
// contributes ~0.01 s/yr.
func TestAS4DowntimeNegligible(t *testing.T) {
	t.Parallel()
	s, err := BuildAppServer(DefaultParams(), 4)
	if err != nil {
		t.Fatalf("BuildAppServer(4): %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	seconds := res.YearlyDowntimeMinutes * 60
	if seconds > 0.1 {
		t.Errorf("AS4 YD = %.4f s/yr, want ≲ 0.01 s (paper: 0.01 s)", seconds)
	}
}

func TestBuildAppServerErrors(t *testing.T) {
	t.Parallel()
	if _, err := BuildAppServer(DefaultParams(), 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("n=0: err = %v", err)
	}
	bad := DefaultParams()
	bad.FIR = 2
	if _, err := BuildAppServer(bad, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad params: err = %v", err)
	}
	if _, err := BuildHADBPair(bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad params HADB: err = %v", err)
	}
}

// TestTable2Config1 reproduces the paper's Table 2 Config 1 row:
// availability 99.99933%, YD 3.5 min (2.35 AS + 1.15 HADB, 67%/33%).
func TestTable2Config1(t *testing.T) {
	t.Parallel()
	res, err := Solve(Config1, DefaultParams())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(res.YearlyDowntimeMinutes-3.5) > 0.15 {
		t.Errorf("YD = %.3f min, want 3.5 ± 0.15", res.YearlyDowntimeMinutes)
	}
	if math.Abs(res.Availability-0.9999933) > 5e-7 {
		t.Errorf("availability = %.7f, want ~0.9999933", res.Availability)
	}
	if math.Abs(res.DowntimeASMinutes-2.35) > 0.1 {
		t.Errorf("AS share = %.3f min, want ~2.35", res.DowntimeASMinutes)
	}
	if math.Abs(res.DowntimeHADBMinutes-1.15) > 0.1 {
		t.Errorf("HADB share = %.3f min, want ~1.15", res.DowntimeHADBMinutes)
	}
	asFrac := res.DowntimeASMinutes / res.YearlyDowntimeMinutes
	if math.Abs(asFrac-0.67) > 0.03 {
		t.Errorf("AS fraction = %.3f, want ~0.67", asFrac)
	}
	// MTBF ≈ 89,980 h (Table 3 row 2).
	if math.Abs(res.MTBFHours-89980) > 2500 {
		t.Errorf("MTBF = %.0f h, want ~89,980", res.MTBFHours)
	}
}

// TestTable2Config2 reproduces Table 2 Config 2: availability 99.99956%,
// YD 2.3 min, HADB-dominated (99.99%).
func TestTable2Config2(t *testing.T) {
	t.Parallel()
	res, err := Solve(Config2, DefaultParams())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(res.YearlyDowntimeMinutes-2.3) > 0.12 {
		t.Errorf("YD = %.3f min, want 2.3 ± 0.12", res.YearlyDowntimeMinutes)
	}
	if math.Abs(res.Availability-0.9999956) > 4e-7 {
		t.Errorf("availability = %.7f, want ~0.9999956", res.Availability)
	}
	if res.DowntimeASMinutes*60 > 0.1 {
		t.Errorf("AS share = %.4f s, want ~0.01 s", res.DowntimeASMinutes*60)
	}
	hadbFrac := res.DowntimeHADBMinutes / res.YearlyDowntimeMinutes
	if hadbFrac < 0.999 {
		t.Errorf("HADB fraction = %.5f, want > 0.999", hadbFrac)
	}
	// MTBF ≈ 229,326 h.
	if math.Abs(res.MTBFHours-229326) > 9000 {
		t.Errorf("MTBF = %.0f h, want ~229,326", res.MTBFHours)
	}
}

// TestTable3AllRows reproduces the paper's Table 3 comparison.
func TestTable3AllRows(t *testing.T) {
	t.Parallel()
	want := []struct {
		cfg       Config
		ydMin     float64
		ydTol     float64
		mtbfHours float64
		mtbfTol   float64
	}{
		{Config{ASInstances: 1, HADBPairs: 0}, 195, 2, 168, 2},
		{Config{ASInstances: 2, HADBPairs: 2, HADBSpares: 2}, 3.49, 0.15, 89980, 2500},
		{Config{ASInstances: 4, HADBPairs: 4, HADBSpares: 2}, 2.29, 0.12, 229326, 9000},
		{Config{ASInstances: 6, HADBPairs: 6, HADBSpares: 2}, 3.44, 0.15, 152889, 6000},
		{Config{ASInstances: 8, HADBPairs: 8, HADBSpares: 2}, 4.58, 0.2, 114669, 4500},
		{Config{ASInstances: 10, HADBPairs: 10, HADBSpares: 2}, 5.73, 0.25, 91736, 3600},
	}
	for _, row := range want {
		row := row
		t.Run(row.cfg.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Solve(row.cfg, DefaultParams())
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if math.Abs(res.YearlyDowntimeMinutes-row.ydMin) > row.ydTol {
				t.Errorf("YD = %.3f min, want %.2f ± %.2f", res.YearlyDowntimeMinutes, row.ydMin, row.ydTol)
			}
			if math.Abs(res.MTBFHours-row.mtbfHours) > row.mtbfTol {
				t.Errorf("MTBF = %.0f h, want %.0f ± %.0f", res.MTBFHours, row.mtbfHours, row.mtbfTol)
			}
		})
	}
}

// TestOptimalConfiguration: the paper concludes 4 AS + 4 pairs is optimal.
func TestOptimalConfiguration(t *testing.T) {
	t.Parallel()
	best := -1
	bestAvail := 0.0
	configs := Table3Configs()
	for i, cfg := range configs {
		res, err := Solve(cfg, DefaultParams())
		if err != nil {
			t.Fatalf("Solve(%v): %v", cfg, err)
		}
		if res.Availability > bestAvail {
			bestAvail, best = res.Availability, i
		}
	}
	if configs[best].ASInstances != 4 {
		t.Errorf("optimal config = %v, want the 4-instance row", configs[best])
	}
}

// TestFiveNinesBoundary: the paper notes 99.999%% no longer holds at 10
// HADB pairs.
func TestFiveNinesBoundary(t *testing.T) {
	t.Parallel()
	res4, err := Solve(Config{ASInstances: 4, HADBPairs: 4, HADBSpares: 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res4.Availability < 0.99999 {
		t.Errorf("4-pair config availability %.7f should be ≥ 5 nines", res4.Availability)
	}
	res10, err := Solve(Config{ASInstances: 10, HADBPairs: 10, HADBSpares: 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res10.Availability >= 0.99999 {
		t.Errorf("10-pair config availability %.7f should be < 5 nines", res10.Availability)
	}
}

// TestGeneralizedASReducesToPaperModel: solving the generalized builder
// with n=2 must agree with a hand-built Figure 4 chain.
func TestGeneralizedASReducesToPaperModel(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	gen, err := BuildAppServer(p, 2)
	if err != nil {
		t.Fatalf("BuildAppServer: %v", err)
	}
	gres, err := gen.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Hand-built Figure 4.
	la := p.asInstanceFailurePerHour()
	fss := p.fractionShortStart()
	b := ctmc.NewBuilder()
	aw := b.State("All_Work")
	rec := b.State("Recovery")
	ds := b.State("1DownShort")
	dl := b.State("1DownLong")
	dn := b.State("2_Down")
	b.Transition(aw, rec, 2*la)
	b.Transition(rec, ds, fss/p.SessionRecovery.Hours())
	b.Transition(rec, dl, (1-fss)/p.SessionRecovery.Hours())
	b.Transition(ds, aw, 1/p.ASRestartShort.Hours())
	b.Transition(dl, aw, 1/p.ASRestartLong.Hours())
	b.Transition(rec, dn, 2*la)
	b.Transition(ds, dn, 2*la)
	b.Transition(dl, dn, 2*la)
	b.Transition(dn, aw, 1/p.ASRestoreAll.Hours())
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s, err := reward.Binary(m, "2_Down")
	if err != nil {
		t.Fatalf("Binary: %v", err)
	}
	pres, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(gres.Availability-pres.Availability) > 1e-14 {
		t.Errorf("generalized %.15f != paper %.15f", gres.Availability, pres.Availability)
	}
	if math.Abs(gres.FailureFrequency-pres.FailureFrequency) > 1e-18 {
		t.Errorf("failure frequency mismatch: %g vs %g", gres.FailureFrequency, pres.FailureFrequency)
	}
}

// TestMoreInstancesLowerASDowntime: adding instances monotonically reduces
// the AS submodel downtime.
func TestMoreInstancesLowerASDowntime(t *testing.T) {
	t.Parallel()
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 3, 4, 5} {
		s, err := BuildAppServer(DefaultParams(), n)
		if err != nil {
			t.Fatalf("BuildAppServer(%d): %v", n, err)
		}
		res, err := s.Solve(ctmc.SolveOptions{})
		if err != nil {
			t.Fatalf("Solve(%d): %v", n, err)
		}
		if res.YearlyDowntimeMinutes >= prev {
			t.Errorf("n=%d YD %.6g not below n−1's %.6g", n, res.YearlyDowntimeMinutes, prev)
		}
		prev = res.YearlyDowntimeMinutes
	}
}

// TestHADBDowntimeScalesLinearly: per the paper, each extra HADB pair adds
// ~0.575 min/yr.
func TestHADBDowntimeScalesLinearly(t *testing.T) {
	t.Parallel()
	base, err := Solve(Config{ASInstances: 4, HADBPairs: 4, HADBSpares: 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	double, err := Solve(Config{ASInstances: 4, HADBPairs: 8, HADBSpares: 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ratio := double.DowntimeHADBMinutes / base.DowntimeHADBMinutes
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("HADB downtime ratio = %.4f, want ~2", ratio)
	}
}

func TestComponentsValidation(t *testing.T) {
	t.Parallel()
	if _, err := Components(Config{}, DefaultParams()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config: err = %v", err)
	}
	bad := DefaultParams()
	bad.Acceleration = 0
	if _, err := Components(Config1, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad params: err = %v", err)
	}
}

func TestSolveNoHADB(t *testing.T) {
	t.Parallel()
	res, err := Solve(Config{ASInstances: 2, HADBPairs: 0}, DefaultParams())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.DowntimeHADBMinutes != 0 {
		t.Errorf("HADB share = %v, want 0", res.DowntimeHADBMinutes)
	}
	if res.HADBSubmodel != nil {
		t.Error("HADBSubmodel should be nil without pairs")
	}
	if res.ASSubmodel == nil {
		t.Error("ASSubmodel missing")
	}
}

// TestHierarchyVsFlatJSAS quantifies the paper's hierarchical approximation
// against the exact flat product model for Config 1. The relative error on
// unavailability must be small (< 2%).
func TestHierarchyVsFlatJSAS(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	hierRes, err := Solve(Config1, p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	asS, err := BuildAppServer(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairS, err := BuildHADBPair(p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := hier.Product(
		[]*reward.Structure{asS, pairS, pairS},
		func(up []bool) bool { return up[0] && up[1] && up[2] },
	)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	fres, err := flat.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve flat: %v", err)
	}
	uh := 1 - hierRes.Availability
	uf := 1 - fres.Availability
	rel := math.Abs(uh-uf) / uf
	if rel > 0.02 {
		t.Errorf("hierarchy error %.4f > 2%% (hier %.3g, flat %.3g)", rel, uh, uf)
	}
}

// TestSweepTstartLong reproduces the shape of Figures 5/6: Config 1 drops
// below five nines somewhere between 2 and 3 hours; Config 2 stays above
// 99.9995% even at 3 hours.
func TestSweepTstartLong(t *testing.T) {
	t.Parallel()
	solveAt := func(cfg Config, tl time.Duration) float64 {
		p := DefaultParams()
		p.ASRestartLong = tl
		res, err := Solve(cfg, p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return res.Availability
	}
	// Config 1 at 0.5 h is above 5 nines; at 3 h it is below.
	if a := solveAt(Config1, 30*time.Minute); a < 0.99999 {
		t.Errorf("Config1 @0.5h = %.7f, want ≥ 0.99999", a)
	}
	if a := solveAt(Config1, 3*time.Hour); a >= 0.99999 {
		t.Errorf("Config1 @3h = %.7f, want < 0.99999", a)
	}
	// Paper: five nines lost around 2.5 h.
	if a := solveAt(Config1, 150*time.Minute); math.Abs(a-0.99999) > 2e-6 {
		t.Logf("Config1 @2.5h = %.7f (paper: crossing point)", a)
	}
	// Config 2 retains 99.9995% at 3 h.
	if a := solveAt(Config2, 3*time.Hour); a < 0.999995 {
		t.Errorf("Config2 @3h = %.7f, want ≥ 0.999995", a)
	}
	// Config 2 is almost insensitive (Figure 6's flat curve).
	a05 := solveAt(Config2, 30*time.Minute)
	a3 := solveAt(Config2, 3*time.Hour)
	if math.Abs(a05-a3) > 1e-8 {
		t.Errorf("Config2 sensitivity = %.3g, want < 1e-8", math.Abs(a05-a3))
	}
}

// TestVeryWideClusterSolvable: a wide cluster's All_Down probability is
// tiny (~6e-20 at 12 instances) but not zero, so the top model keeps its
// AS_Fail branch and the AS downtime share agrees with a 256-bit
// reference. Only when the AS equivalent failure rate really underflows
// to zero (here, AS failures at 1e-30 per year) must the top model omit
// the unreachable AS_Fail branch instead of failing as reducible.
func TestVeryWideClusterSolvable(t *testing.T) {
	t.Parallel()
	solve := func(n int, p Params) *SystemResult {
		t.Helper()
		res, err := Solve(Config{ASInstances: n, HADBPairs: n / 2, HADBSpares: 2}, p)
		if err != nil {
			t.Fatalf("Solve(%d instances): %v", n, err)
		}
		if res.DowntimeHADBMinutes <= 0 {
			t.Errorf("n=%d: HADB downtime = %v, want > 0", n, res.DowntimeHADBMinutes)
		}
		return res
	}
	if res := solve(16, DefaultParams()); res.DowntimeASMinutes <= 0 {
		t.Errorf("n=16: AS downtime = %v, want > 0", res.DowntimeASMinutes)
	}

	// AS_Fail's top-level occupancy is π_Ok·λ_eq/μ_eq, and λ_eq/μ_eq is
	// the AS submodel's P(down)/P(up).
	res := solve(12, DefaultParams())
	as, err := BuildAppServer(DefaultParams(), 12)
	if err != nil {
		t.Fatal(err)
	}
	refDown, _ := referenceMeasures(as)
	ratio := new(big.Float).Sub(big.NewFloat(1), refDown)
	ratio.Quo(refDown, ratio)
	r, _ := ratio.Float64()
	want := res.System.Pi[0] * r * reward.MinutesPerYear
	if rel := math.Abs(res.DowntimeASMinutes-want) / want; rel > 1e-12 {
		t.Errorf("n=12: AS downtime = %.17g, reference %.17g (relative error %.3g)", res.DowntimeASMinutes, want, rel)
	}

	tiny := DefaultParams()
	tiny.ASFailuresPerYear, tiny.ASOSFailuresPerYear, tiny.ASHWFailuresPerYear = 1e-30, 1e-30, 1e-30
	res = solve(12, tiny)
	if res.DowntimeASMinutes != 0 || res.ASSubmodel.LambdaEq != 0 {
		t.Errorf("AS failures at 1e-30/yr: AS downtime = %v, λ_eq = %v, want 0 (underflow)",
			res.DowntimeASMinutes, res.ASSubmodel.LambdaEq)
	}
	if len(res.System.Pi) != 2 {
		t.Errorf("AS failures at 1e-30/yr: top model has %d states, want 2 (Ok, HADB_Fail)", len(res.System.Pi))
	}
}

// TestAccelerationAblation quantifies the paper's workload-dependency
// assumption (§4: failure rate doubles after each failure). Turning the
// acceleration off (Acc = 1) roughly halves the second-failure paths:
// the AS submodel's downtime drops by ~50%, and system downtime follows.
func TestAccelerationAblation(t *testing.T) {
	t.Parallel()
	base := DefaultParams()
	noAcc := base
	noAcc.Acceleration = 1
	withRes, err := Solve(Config1, base)
	if err != nil {
		t.Fatal(err)
	}
	withoutRes, err := Solve(Config1, noAcc)
	if err != nil {
		t.Fatal(err)
	}
	if withoutRes.YearlyDowntimeMinutes >= withRes.YearlyDowntimeMinutes {
		t.Errorf("Acc=1 downtime %.3f should be below Acc=2's %.3f",
			withoutRes.YearlyDowntimeMinutes, withRes.YearlyDowntimeMinutes)
	}
	asRatio := withoutRes.DowntimeASMinutes / withRes.DowntimeASMinutes
	if asRatio < 0.4 || asRatio > 0.6 {
		t.Errorf("AS downtime ratio Acc=1/Acc=2 = %.3f, want ~0.5", asRatio)
	}
	// The conservative (accelerated) assumption costs about a minute of
	// modeled downtime per year for Config 1.
	delta := withRes.YearlyDowntimeMinutes - withoutRes.YearlyDowntimeMinutes
	if delta < 0.5 || delta > 2 {
		t.Errorf("acceleration premium = %.3f min/yr, want O(1 min)", delta)
	}
}

// TestHADBMatchesFigure3 verifies the HADB pair model transition-by-
// transition against the paper's Figure 3.
func TestHADBMatchesFigure3(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	s, err := BuildHADBPair(p)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Model()
	mustState := func(name string) ctmc.State {
		st, err := m.StateByName(name)
		if err != nil {
			t.Fatalf("missing state %q", name)
		}
		return st
	}
	ok := mustState(HADBStateOk)
	rs := mustState(HADBStateRestartShort)
	rl := mustState(HADBStateRestartLong)
	rep := mustState(HADBStateRepair)
	mnt := mustState(HADBStateMaintenance)
	down := mustState(HADBStateDown)
	const perHour = 1.0 / 8760
	la := (p.HADBFailuresPerYear + p.HADBOSFailuresPerYear + p.HADBHWFailuresPerYear) * perHour
	checks := []struct {
		name     string
		from, to ctmc.State
		want     float64
	}{
		{"Ok→RestartShort = 2·La_hadb·(1−FIR)", ok, rs, 2 * p.HADBFailuresPerYear * perHour * (1 - p.FIR)},
		{"Ok→RestartLong = 2·La_os·(1−FIR)", ok, rl, 2 * p.HADBOSFailuresPerYear * perHour * (1 - p.FIR)},
		{"Ok→Repair = 2·La_hw·(1−FIR)", ok, rep, 2 * p.HADBHWFailuresPerYear * perHour * (1 - p.FIR)},
		{"Ok→Maintenance = La_mnt", ok, mnt, p.MaintenancePerYear * perHour},
		{"Ok→2_Down = 2·La·FIR", ok, down, 2 * la * p.FIR},
		{"RestartShort→Ok = 1/Tstart_short", rs, ok, 1 / p.HADBRestartShort.Hours()},
		{"RestartLong→Ok = 1/Tstart_long", rl, ok, 1 / p.HADBRestartLong.Hours()},
		{"Repair→Ok = 1/Trepair", rep, ok, 1 / p.HADBRepair.Hours()},
		{"Maintenance→Ok = 1/Tmnt", mnt, ok, 1 / p.MaintenanceSwitchover.Hours()},
		{"RestartShort→2_Down = Acc·La", rs, down, p.Acceleration * la},
		{"RestartLong→2_Down = Acc·La", rl, down, p.Acceleration * la},
		{"Repair→2_Down = Acc·La", rep, down, p.Acceleration * la},
		{"Maintenance→2_Down = Acc·La", mnt, down, p.Acceleration * la},
		{"2_Down→Ok = 1/Trestore", down, ok, 1 / p.HADBRestore.Hours()},
	}
	for _, c := range checks {
		got := m.Rate(c.from, c.to)
		if math.Abs(got-c.want) > 1e-15*math.Max(1, c.want) {
			t.Errorf("%s: rate = %g, want %g", c.name, got, c.want)
		}
	}
	// No other transitions exist.
	if m.NumTransitions() != len(checks) {
		t.Errorf("transitions = %d, want %d", m.NumTransitions(), len(checks))
	}
}
