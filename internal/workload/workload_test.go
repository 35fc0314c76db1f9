package workload

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/jsas"
)

func TestProfilesMatchPaper(t *testing.T) {
	t.Parallel()
	m := Marketplace()
	if m.SessionKB != 50 {
		t.Errorf("Marketplace session = %d KB, want 50", m.SessionKB)
	}
	n := NileBookstore()
	if n.SessionKB != 30 {
		t.Errorf("NileBookstore session = %d KB, want 30", n.SessionKB)
	}
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		// Paper: 60–70% load factor.
		if p.LoadFactor < 0.6 || p.LoadFactor > 0.7 {
			t.Errorf("profile %s load factor = %g, want 0.6–0.7", p.Name, p.LoadFactor)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	t.Parallel()
	bad := []Profile{
		{},
		{Name: "x", SessionKB: 0, SessionsPerInstance: 1, RequestRatePerSecond: 1, LoadFactor: 0.5},
		{Name: "x", SessionKB: 1, SessionsPerInstance: 0, RequestRatePerSecond: 1, LoadFactor: 0.5},
		{Name: "x", SessionKB: 1, SessionsPerInstance: 1, RequestRatePerSecond: 0, LoadFactor: 0.5},
		{Name: "x", SessionKB: 1, SessionsPerInstance: 1, RequestRatePerSecond: 1, LoadFactor: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadRun) {
			t.Errorf("bad profile %d: err = %v", i, err)
		}
	}
}

func TestNodeDataGB(t *testing.T) {
	t.Parallel()
	// Paper's test config: 2 instances × 10,000 sessions × 50 KB = 1 GB
	// total, over 2 pairs → 0.5 GB per node (paper rounds to "within 1GB").
	gb := NodeDataGB(jsas.Config1, Marketplace())
	if math.Abs(gb-0.5) > 1e-9 {
		t.Errorf("NodeDataGB = %v, want 0.5", gb)
	}
	if NodeDataGB(jsas.Config{ASInstances: 1}, Marketplace()) != 0 {
		t.Error("no pairs should give 0")
	}
}

// TestSevenDayStabilityRun reproduces the paper's §3 stability runs:
// roughly seven million requests per 7-day run at a 60–70% load factor.
func TestSevenDayStabilityRun(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), RunOptions{
		Config:   jsas.Config1,
		Params:   jsas.DefaultParams(),
		Profile:  Marketplace(),
		Duration: 7 * 24 * time.Hour,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.RequestsServed < 6.5e6 || res.RequestsServed > 8e6 {
		t.Errorf("requests = %.2g, want ≈ 7e6", res.RequestsServed)
	}
	if res.Availability != 1 {
		t.Errorf("availability = %v, want 1 (no organic failures)", res.Availability)
	}
	if res.ASInstanceFailures != 0 || res.SystemOutages != 0 {
		t.Errorf("failures = %d, outages = %d; want 0", res.ASInstanceFailures, res.SystemOutages)
	}
}

// TestTwentyFourDayRunBounds reproduces the Equation (2) estimates from
// the paper's 24-day sanity run: with zero failures over 2 instances ×
// 24 days, the 95% bound is 1/16 days and the 99.5% bound 1/9 days.
func TestTwentyFourDayRunBounds(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), RunOptions{
		Config:   jsas.Config1,
		Params:   jsas.DefaultParams(),
		Profile:  NileBookstore(),
		Duration: 24 * 24 * time.Hour,
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.InstanceExposure != 48*24*time.Hour {
		t.Fatalf("exposure = %v, want 48 days", res.InstanceExposure)
	}
	if len(res.RateBounds) != 2 {
		t.Fatalf("bounds = %d, want 2", len(res.RateBounds))
	}
	perDay95 := res.RateBounds[0].PerHour * 24
	if math.Abs(1/perDay95-16) > 0.1 {
		t.Errorf("95%% bound = 1/%.2f days, want 1/16", 1/perDay95)
	}
	perDay995 := res.RateBounds[1].PerHour * 24
	if math.Abs(1/perDay995-9) > 0.1 {
		t.Errorf("99.5%% bound = 1/%.2f days, want 1/9", 1/perDay995)
	}
}

// TestOrganicRunCountsFailures: with organic failures the bound widens
// with the observed count.
func TestOrganicRunCountsFailures(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), RunOptions{
		Config:          jsas.Config1,
		Params:          jsas.DefaultParams(),
		Profile:         Marketplace(),
		Duration:        60 * 24 * time.Hour,
		Seed:            3,
		OrganicFailures: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// At 52/yr/instance over 2 instances × 60 days ≈ 17 expected failures.
	if res.ASInstanceFailures < 5 {
		t.Errorf("organic failures = %d, expected noticeably more", res.ASInstanceFailures)
	}
	// Bound must cover the true rate (52/yr ≈ 0.00594/h) with high
	// probability.
	if res.RateBounds[0].PerHour < 52.0/8760/2 {
		t.Errorf("95%% bound %.5f/h implausibly below half the true rate", res.RateBounds[0].PerHour)
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(context.Background(), RunOptions{Profile: Profile{}}); !errors.Is(err, ErrBadRun) {
		t.Errorf("bad profile: err = %v", err)
	}
	if _, err := Run(context.Background(), RunOptions{
		Config: jsas.Config1, Params: jsas.DefaultParams(),
		Profile: Marketplace(), Duration: 0,
	}); !errors.Is(err, ErrBadRun) {
		t.Errorf("zero duration: err = %v", err)
	}
	if _, err := Run(context.Background(), RunOptions{
		Config: jsas.Config{}, Params: jsas.DefaultParams(),
		Profile: Marketplace(), Duration: time.Hour,
	}); err == nil {
		t.Error("bad config accepted")
	}
}

// TestRunSeriesPoolsExposure: multiple 7-day runs pool their exposure and
// tighten the Equation (2) bound relative to a single run.
func TestRunSeriesPoolsExposure(t *testing.T) {
	t.Parallel()
	opts := RunOptions{
		Config:   jsas.Config1,
		Params:   jsas.DefaultParams(),
		Profile:  NileBookstore(),
		Duration: 7 * 24 * time.Hour,
		Seed:     10,
	}
	series, err := RunSeriesWith(context.Background(), SeriesOptions{Run: opts, Runs: 4, Parallelism: 1})
	if err != nil {
		t.Fatalf("RunSeriesWith: %v", err)
	}
	if len(series.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(series.Runs))
	}
	wantExposure := 4 * 2 * 7 * 24 * time.Hour
	if series.TotalExposure != wantExposure {
		t.Errorf("exposure = %v, want %v", series.TotalExposure, wantExposure)
	}
	single, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if series.TotalFailures == 0 && single.ASInstanceFailures == 0 {
		if series.PooledBounds[0].PerHour >= single.RateBounds[0].PerHour {
			t.Errorf("pooled bound %v should be tighter than single-run %v",
				series.PooledBounds[0].PerHour, single.RateBounds[0].PerHour)
		}
	}
	// ~28M requests over four 7-day runs.
	if series.TotalRequests < 4*6.5e6 {
		t.Errorf("total requests = %.3g, want ≈ 2.8e7", series.TotalRequests)
	}
}

func TestRunSeriesValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunSeriesWith(context.Background(), SeriesOptions{Run: RunOptions{}, Runs: 0}); !errors.Is(err, ErrBadRun) {
		t.Errorf("runs=0: err = %v", err)
	}
	if _, err := RunSeriesWith(context.Background(), SeriesOptions{Run: RunOptions{Profile: Profile{}}, Runs: 1}); err == nil {
		t.Error("bad options accepted")
	}
}
