package uncertainty

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// newTestResult builds a Result shell with n pre-drawn dummy assignments,
// letting solveAll be exercised directly (Run discards the Result on
// failure, but the diagnostics and obs counters must still be recorded
// accurately for failing runs).
func newTestResult(n int) *Result {
	res := &Result{
		Samples:   make([]Sample, n),
		Downtimes: make([]float64, n),
		CIs:       map[float64]stats.Interval{},
	}
	for i := range res.Samples {
		res.Samples[i] = Sample{Assignment: map[string]float64{"x": float64(i)}}
	}
	return res
}

// TestFailureAccountingSeparatesSolvedFromFailed is the regression test
// for the diagnostics bug where failed solves were counted as "solved" and
// their latencies folded into the min/mean/max summary: a run with
// failures must report successes and failures separately. It does not
// run in parallel: it checks deltas of the process-wide sample counters,
// which the package's parallel tests also advance.
func TestFailureAccountingSeparatesSolvedFromFailed(t *testing.T) {
	res := newTestResult(10)
	okBefore := obs.C("uncertainty_samples_solved_total", "").Value()
	failBefore := obs.C("uncertainty_sample_failures_total", "").Value()
	// Fail samples 7 and up. At parallelism 1 the pool drains after the
	// failure at index 7: samples 0–6 succeed, 7 fails, 8–9 are skipped.
	solve := func(a map[string]float64) (float64, error) {
		if a["x"] >= 7 {
			return 0, fmt.Errorf("boom at %g", a["x"])
		}
		return a["x"], nil
	}
	err := solveAll(context.Background(), res, solve, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "sample 7") {
		t.Fatalf("err = %v, want the failure at sample 7", err)
	}
	d := res.Diag
	if d.SamplesSolved != 7 {
		t.Errorf("SamplesSolved = %d, want 7 (successes only)", d.SamplesSolved)
	}
	if d.SamplesFailed != 1 {
		t.Errorf("SamplesFailed = %d, want 1 (samples past the failure are skipped, not failed)", d.SamplesFailed)
	}
	if d.MinSolve > d.MeanSolve || d.MeanSolve > d.MaxSolve {
		t.Errorf("latency ordering violated: %+v", d)
	}
	if d.SolveTotal <= 0 {
		t.Errorf("SolveTotal = %v, want > 0 (total busy time incl. failures)", d.SolveTotal)
	}
	if !strings.Contains(d.String(), "failed=1") {
		t.Errorf("diagnostics string %q does not report failures", d.String())
	}
	if got := obs.C("uncertainty_samples_solved_total", "").Value(); got != okBefore+7 {
		t.Errorf("solved counter advanced by %d, want 7", got-okBefore)
	}
	if got := obs.C("uncertainty_sample_failures_total", "").Value(); got != failBefore+1 {
		t.Errorf("failure counter advanced by %d, want 1", got-failBefore)
	}
}

// TestFailureAccountingCleanRun checks a fully successful run reports zero
// failures and omits the failed= clause from the summary line.
func TestFailureAccountingCleanRun(t *testing.T) {
	t.Parallel()
	res := newTestResult(20)
	if err := solveAll(context.Background(), res, func(a map[string]float64) (float64, error) { return a["x"], nil }, 4, nil); err != nil {
		t.Fatal(err)
	}
	d := res.Diag
	if d.SamplesSolved != 20 || d.SamplesFailed != 0 {
		t.Errorf("solved/failed = %d/%d, want 20/0", d.SamplesSolved, d.SamplesFailed)
	}
	if strings.Contains(d.String(), "failed=") {
		t.Errorf("clean-run diagnostics %q mention failures", d.String())
	}
}
