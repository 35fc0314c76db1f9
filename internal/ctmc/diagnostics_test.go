package ctmc

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func TestSolveDiagnosticsDense(t *testing.T) {
	m, _, _ := twoState(t, 0.001, 4)
	var d Diagnostics
	pi, err := m.SteadyState(SolveOptions{Diag: &d})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]+pi[1]-1) > 1e-12 {
		t.Fatalf("pi sums to %g", pi[0]+pi[1])
	}
	if d.Method != MethodDense {
		t.Errorf("auto method on a 2-state chain = %v, want dense", d.Method)
	}
	if d.States != 2 || d.Iterations != 0 || d.DenseFallback {
		t.Errorf("diagnostics = %+v, want 2 states, 0 iterations, no fallback", d)
	}
	if d.Wall <= 0 {
		t.Errorf("wall time %v, want > 0", d.Wall)
	}
	if d.String() == "" {
		t.Error("empty diagnostics string")
	}
}

func TestSolveDiagnosticsIterative(t *testing.T) {
	m := bigChain(t, denseThreshold+50)
	var d Diagnostics
	if _, err := m.SteadyState(SolveOptions{Diag: &d}); err != nil {
		t.Fatal(err)
	}
	if d.Method != MethodGaussSeidel {
		t.Errorf("method = %v, want gauss-seidel", d.Method)
	}
	if d.Iterations <= 0 || d.DenseFallback {
		t.Errorf("diagnostics = %+v, want > 0 iterations and no fallback", d)
	}
	if !(d.FinalDiff >= 0 && d.FinalDiff < 1e-12) {
		t.Errorf("final diff = %g, want within default tolerance", d.FinalDiff)
	}
}

// TestSolveRecordsObsMetrics checks the solver reports into the default
// obs registry: the per-method solve counter must advance.
func TestSolveRecordsObsMetrics(t *testing.T) {
	m, _, _ := twoState(t, 0.001, 4)
	before := obs.C("ctmc_solves_total", "", `method="dense"`).Value()
	secBefore := obs.H("ctmc_solve_seconds", "", obs.DurationBuckets).Count()
	if _, err := m.SteadyState(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.C("ctmc_solves_total", "", `method="dense"`).Value(); got != before+1 {
		t.Errorf("ctmc_solves_total{method=dense} = %d, want %d", got, before+1)
	}
	if got := obs.H("ctmc_solve_seconds", "", obs.DurationBuckets).Count(); got != secBefore+1 {
		t.Errorf("ctmc_solve_seconds count = %d, want %d", got, secBefore+1)
	}
}
