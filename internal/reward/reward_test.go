package reward

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
)

func buildTwoState(t *testing.T, lambda, mu float64) *ctmc.Model {
	t.Helper()
	b := ctmc.NewBuilder()
	up := b.State("Up")
	down := b.State("Down")
	b.Transition(up, down, lambda)
	b.Transition(down, up, mu)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestBinaryTwoState(t *testing.T) {
	t.Parallel()
	const lambda, mu = 0.001, 2.0
	m := buildTwoState(t, lambda, mu)
	s, err := Binary(m, "Down")
	if err != nil {
		t.Fatalf("Binary: %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	wantAvail := mu / (lambda + mu)
	if math.Abs(res.Availability-wantAvail) > 1e-12 {
		t.Errorf("Availability = %v, want %v", res.Availability, wantAvail)
	}
	if math.Abs(res.ExpectedReward-wantAvail) > 1e-12 {
		t.Errorf("ExpectedReward = %v, want %v", res.ExpectedReward, wantAvail)
	}
	wantYD := (1 - wantAvail) * MinutesPerYear
	if math.Abs(res.YearlyDowntimeMinutes-wantYD) > 1e-9 {
		t.Errorf("YD = %v, want %v", res.YearlyDowntimeMinutes, wantYD)
	}
	wantFreq := wantAvail * lambda
	if math.Abs(res.FailureFrequency-wantFreq) > 1e-12 {
		t.Errorf("FailureFrequency = %v, want %v", res.FailureFrequency, wantFreq)
	}
	if math.Abs(res.MTBFHours-1/wantFreq) > 1e-6 {
		t.Errorf("MTBF = %v, want %v", res.MTBFHours, 1/wantFreq)
	}
	if math.Abs(res.MeanDownDurationHours-1/mu) > 1e-9 {
		t.Errorf("MeanDownDuration = %v, want %v", res.MeanDownDurationHours, 1/mu)
	}
	if math.Abs(res.LambdaEq-lambda) > 1e-12 || math.Abs(res.MuEq-mu) > 1e-9 {
		t.Errorf("equivalent rates = (%v, %v), want (%v, %v)", res.LambdaEq, res.MuEq, lambda, mu)
	}
}

func TestBinaryUnknownState(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1, 1)
	if _, err := Binary(m, "NoSuch"); !errors.Is(err, ctmc.ErrNoSuchState) {
		t.Errorf("err = %v, want ErrNoSuchState", err)
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1, 1)
	if _, err := New(m, []float64{1}); !errors.Is(err, ErrReward) {
		t.Errorf("short rates: err = %v, want ErrReward", err)
	}
	if _, err := New(m, []float64{1, -1}); !errors.Is(err, ErrReward) {
		t.Errorf("negative reward: err = %v, want ErrReward", err)
	}
	if _, err := New(nil, nil); !errors.Is(err, ErrReward) {
		t.Errorf("nil model: err = %v, want ErrReward", err)
	}
}

func TestPerformabilityReward(t *testing.T) {
	t.Parallel()
	// Three states: full (reward 1), degraded (reward 0.5), down (0).
	b := ctmc.NewBuilder()
	full := b.State("Full")
	deg := b.State("Degraded")
	down := b.State("Down")
	b.Transition(full, deg, 1)
	b.Transition(deg, full, 1)
	b.Transition(deg, down, 1)
	b.Transition(down, full, 2)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s, err := New(m, []float64{1, 0.5, 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Availability counts degraded as up; expected reward discounts it.
	if res.ExpectedReward >= res.Availability {
		t.Errorf("performability %v should be < availability %v", res.ExpectedReward, res.Availability)
	}
	wantAvail := 1 - res.Pi[down]
	if math.Abs(res.Availability-wantAvail) > 1e-12 {
		t.Errorf("Availability = %v, want %v", res.Availability, wantAvail)
	}
}

func TestDowntimeShare(t *testing.T) {
	t.Parallel()
	// Two distinct failure modes with different repair rates.
	b := ctmc.NewBuilder()
	ok := b.State("Ok")
	fa := b.State("FailA")
	fb := b.State("FailB")
	b.Transition(ok, fa, 0.01)
	b.Transition(ok, fb, 0.02)
	b.Transition(fa, ok, 1)
	b.Transition(fb, ok, 4)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s, err := Binary(m, "FailA", "FailB")
	if err != nil {
		t.Fatalf("Binary: %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	shares, err := s.DowntimeShare(res.Pi, map[string][]string{
		"A": {"FailA"},
		"B": {"FailB"},
	})
	if err != nil {
		t.Fatalf("DowntimeShare: %v", err)
	}
	total := shares["A"] + shares["B"]
	if math.Abs(total-res.YearlyDowntimeMinutes) > 1e-9 {
		t.Errorf("shares sum %v, want total %v", total, res.YearlyDowntimeMinutes)
	}
	// FailA has 0.01 rate and 1h repair → 0.01 expected hours share;
	// FailB has 0.02 rate and 0.25h repair → 0.005. Ratio A:B = 2:1.
	if math.Abs(shares["A"]/shares["B"]-2) > 1e-9 {
		t.Errorf("share ratio = %v, want 2", shares["A"]/shares["B"])
	}
}

func TestDowntimeShareErrors(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1, 1)
	s, err := Binary(m, "Down")
	if err != nil {
		t.Fatalf("Binary: %v", err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if _, err := s.DowntimeShare(res.Pi, map[string][]string{"x": {"Up"}}); !errors.Is(err, ErrReward) {
		t.Errorf("up state in group: err = %v, want ErrReward", err)
	}
	if _, err := s.DowntimeShare(res.Pi, map[string][]string{"x": {"zzz"}}); !errors.Is(err, ctmc.ErrNoSuchState) {
		t.Errorf("unknown state: err = %v, want ErrNoSuchState", err)
	}
	if _, err := s.DowntimeShare([]float64{1}, nil); !errors.Is(err, ErrReward) {
		t.Errorf("short pi: err = %v, want ErrReward", err)
	}
}

func TestFromPiValidation(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1, 1)
	s, err := Binary(m, "Down")
	if err != nil {
		t.Fatalf("Binary: %v", err)
	}
	if _, err := s.FromPi([]float64{1}); !errors.Is(err, ErrReward) {
		t.Errorf("err = %v, want ErrReward", err)
	}
}

func TestDownStatesCopy(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1, 1)
	s, err := Binary(m, "Down")
	if err != nil {
		t.Fatalf("Binary: %v", err)
	}
	ds := s.DownStates()
	for k := range ds {
		delete(ds, k)
	}
	if len(s.DownStates()) != 1 {
		t.Error("DownStates exposes internal map")
	}
}

func TestRateAccessor(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1, 1)
	s, err := New(m, []float64{1, 0.25})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Rate(1) != 0.25 {
		t.Errorf("Rate(1) = %v, want 0.25", s.Rate(1))
	}
	if s.Model() != m {
		t.Error("Model() returned wrong model")
	}
}

func TestConstantsMatchPaper(t *testing.T) {
	t.Parallel()
	// The paper's Table 3 availability figures imply a 525,600-minute year.
	if MinutesPerYear != 525600 {
		t.Errorf("MinutesPerYear = %d, want 525600", MinutesPerYear)
	}
	if HoursPerYear != 8760 {
		t.Errorf("HoursPerYear = %d, want 8760", HoursPerYear)
	}
}

// TestMeasureMatchesFromPi: Measure into a reused Result gives FromPi's
// measures bit for bit, whatever the Result held before, and FromPi's
// error is Measure's.
func TestMeasureMatchesFromPi(t *testing.T) {
	t.Parallel()
	b := ctmc.NewBuilder()
	s0, s1, s2, s3 := b.State("Full"), b.State("Degraded"), b.State("DownA"), b.State("DownB")
	b.Transition(s0, s1, 0.02)
	b.Transition(s1, s2, 0.01)
	b.Transition(s1, s3, 0.003)
	b.Transition(s0, s3, 0.0007)
	b.Transition(s1, s0, 3)
	b.Transition(s2, s0, 0.5)
	b.Transition(s3, s1, 0.25)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{1, 0.5, 0, 0}
	s, err := New(m, rates)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := Result{Availability: 7, MTBFHours: 7, MeanDownDurationHours: 7, MuEq: 7}
	if err := Measure(&got, want.Pi, rates, m.EntryFrequency(want.Pi, s.down)); err != nil {
		t.Fatal(err)
	}
	fields := func(r *Result) [8]uint64 {
		var out [8]uint64
		for i, v := range []float64{r.Availability, r.ExpectedReward, r.YearlyDowntimeMinutes,
			r.FailureFrequency, r.MTBFHours, r.MeanDownDurationHours, r.LambdaEq, r.MuEq} {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	if fields(&got) != fields(want) {
		t.Errorf("Measure = %+v, FromPi = %+v", got, *want)
	}

	allDown, err := New(m, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, ferr := allDown.FromPi(want.Pi)
	merr := Measure(&got, want.Pi, make([]float64, 4), 0)
	if ferr == nil || merr == nil || ferr.Error() != "reward solve: "+merr.Error() || !errors.Is(merr, ctmc.ErrBadModel) {
		t.Errorf("all-down chain: FromPi err %v, Measure err %v", ferr, merr)
	}
}

// TestNonFiniteMeasureRejected: a failure frequency so small that its
// reciprocal overflows gives an infinite MTBF, which Solve and Measure
// report as a model error instead of returning.
func TestNonFiniteMeasureRejected(t *testing.T) {
	t.Parallel()
	m := buildTwoState(t, 1e-320, 1)
	s, err := Binary(m, "Down")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if !errors.Is(err, ctmc.ErrBadModel) || !strings.Contains(err.Error(), "MTBF is +Inf") {
		t.Fatalf("Solve = %+v, %v; want an ErrBadModel naming the infinite MTBF", res, err)
	}
	var got Result
	if err := Measure(&got, []float64{1, 0}, []float64{1, 0}, math.SmallestNonzeroFloat64); !errors.Is(err, ctmc.ErrBadModel) {
		t.Errorf("Measure with a subnormal frequency: err = %v, want ErrBadModel", err)
	}
	if err := Measure(&got, []float64{math.NaN(), 0.5}, []float64{1, 0}, 0.5); !errors.Is(err, ctmc.ErrBadModel) {
		t.Errorf("Measure with a NaN probability: err = %v, want ErrBadModel", err)
	}
}
