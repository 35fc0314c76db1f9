package jsas

import (
	"math"
	"testing"
	"time"
)

// TestReducibleASChainErrorsPinned pins the error text Solve and an
// uncertainty sample report when FSS ∈ {0, 1} drops a recovery branch
// and leaves the AS chain reducible. No golden file reaches these
// errors, and callers see their text.
func TestReducibleASChainErrorsPinned(t *testing.T) {
	t.Parallel()
	const reducible = `solve "Appl Server": reward solve: steady state undefined: ctmc: chain is not irreducible`
	cases := []struct {
		name       string
		overrides  map[string]float64
		cfg        Config
		wantPrefix string
	}{
		{"FSS = 0", map[string]float64{ParamASFailures: 0}, Config1,
			"solve 2 AS instance(s), 2 HADB pair(s), 2 spare(s): "},
		{"FSS = 1", map[string]float64{ParamOSFailures: 0, ParamHWFailures: 0}, Config2,
			"solve 4 AS instance(s), 4 HADB pair(s), 2 spare(s): "},
		{"FSS = 0, one instance", map[string]float64{ParamASFailures: 0}, Table3Configs()[0],
			"solve 1 AS instance(s), 0 HADB pair(s), 0 spare(s): "},
		{"FSS = 1, one instance", map[string]float64{ParamOSFailures: 0, ParamHWFailures: 0}, Table3Configs()[0],
			"solve 1 AS instance(s), 0 HADB pair(s), 0 spare(s): "},
	}
	for _, c := range cases {
		want := c.wantPrefix + reducible
		p, err := ApplyOverrides(DefaultParams(), c.overrides)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Solve(c.cfg, p); err == nil || err.Error() != want {
			t.Errorf("%s: Solve error %q, want %q", c.name, err, want)
		}
		if _, err := UncertaintySolver(c.cfg, DefaultParams())(c.overrides); err == nil || err.Error() != want {
			t.Errorf("%s: uncertainty sample error %q, want %q", c.name, err, want)
		}
	}
}

// TestIntervalAvailabilityPinned pins the bits of IntervalAvailability
// for Configs 1 and 2 over a day and a year, with and without a
// common-cause state.
func TestIntervalAvailabilityPinned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		cfg              Config
		beta             float64
		mission          time.Duration
		interval, steady uint64
		downtime         time.Duration
	}{
		{Config1, 0, 24 * time.Hour, 0x3feffff27966fdb1, 0x3feffff216fca697, 557244644},
		{Config1, 0, 8760 * time.Hour, 0x3feffff217418e05, 0x3feffff216fca697, 209159442172},
		{Config1, 0.1, 24 * time.Hour, 0x3fefffeffee05dd6, 0x3fefffef80df8d25, 659360506},
		{Config1, 0.1, 8760 * time.Hour, 0x3fefffef8137cdf9, 0x3fefffef80df8d25, 248047809252},
		{Config2, 0, 24 * time.Hour, 0x3feffff74af92871, 0x3feffff6ea0f5bbc, 358722934},
		{Config2, 0, 8760 * time.Hour, 0x3feffff6ea533572, 0x3feffff6ea0f5bbc, 136611025258},
		{Config2, 0.1, 24 * time.Hour, 0x3feffff6534d6ee6, 0x3feffff5e79ef9e6, 398581225},
		{Config2, 0.1, 8760 * time.Hour, 0x3feffff5e7ea610c, 0x3feffff5e79ef9e6, 151790096286},
	}
	for _, c := range cases {
		p := DefaultParams()
		p.Beta = c.beta
		r, err := IntervalAvailability(c.cfg, p, c.mission)
		if err != nil {
			t.Fatalf("%v β=%v %v: %v", c.cfg, c.beta, c.mission, err)
		}
		if math.Float64bits(r.IntervalAvailability) != c.interval ||
			math.Float64bits(r.SteadyStateAvailability) != c.steady || r.ExpectedDowntime != c.downtime {
			t.Errorf("%v β=%v %v: interval %#x, steady %#x, downtime %d; want %#x, %#x, %d", c.cfg, c.beta, c.mission,
				math.Float64bits(r.IntervalAvailability), math.Float64bits(r.SteadyStateAvailability), int64(r.ExpectedDowntime),
				c.interval, c.steady, int64(c.downtime))
		}
	}
}
