package jsas

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/backend"
	"repro/internal/sensitivity"
	"repro/internal/uncertainty"
)

// Uncertainty-analysis parameter names (paper §7). Rates are per year,
// Tstart_long is in hours, FIR is a fraction. The OS and HW rates apply to
// both AS and HADB nodes, as in the paper's parameter table.
const (
	ParamASFailures   = "La_as"       // AS failure rate, 10–50 /year
	ParamHADBFailures = "La_hadb"     // HADB failure rate, 1–4 /year
	ParamOSFailures   = "La_os"       // OS failure rate, 0.5–2 /year
	ParamHWFailures   = "La_hw"       // HW failure rate, 0.5–2 /year
	ParamTstartLong   = "Tstart_long" // AS HW/OS recovery time, 0.5–3 h
	ParamFIR          = "FIR"         // fraction of imperfect recovery, 0–0.2%
)

// PaperUncertaintyRanges returns the six sampled parameter ranges of the
// paper's uncertainty analysis (§7).
func PaperUncertaintyRanges() []uncertainty.Range {
	return []uncertainty.Range{
		{Name: ParamASFailures, Low: 10, High: 50},
		{Name: ParamHADBFailures, Low: 1, High: 4},
		{Name: ParamOSFailures, Low: 0.5, High: 2},
		{Name: ParamHWFailures, Low: 0.5, High: 2},
		{Name: ParamTstartLong, Low: 0.5, High: 3},
		{Name: ParamFIR, Low: 0, High: 0.002},
	}
}

// ApplyOverrides returns a copy of p with the named analysis parameters
// replaced. Unknown names yield an error.
func ApplyOverrides(p Params, overrides map[string]float64) (Params, error) {
	for name, v := range overrides {
		switch name {
		case ParamASFailures:
			p.ASFailuresPerYear = v
		case ParamHADBFailures:
			p.HADBFailuresPerYear = v
		case ParamOSFailures:
			p.ASOSFailuresPerYear = v
			p.HADBOSFailuresPerYear = v
		case ParamHWFailures:
			p.ASHWFailuresPerYear = v
			p.HADBHWFailuresPerYear = v
		case ParamTstartLong:
			p.ASRestartLong = time.Duration(v * float64(time.Hour))
		case ParamFIR:
			p.FIR = v
		default:
			return Params{}, fmt.Errorf("unknown analysis parameter %q: %w", name, ErrBadConfig)
		}
	}
	return p, nil
}

// UncertaintySolver adapts a configuration to the uncertainty package: each
// sampled assignment is applied over the base parameters and the hierarchy
// re-solved for yearly downtime. The hierarchy is compiled once, at base,
// and each sample re-rates and re-solves it in a pooled workspace
// (hier.Plan); results equal Solve's bit for bit. The returned solver is
// safe for concurrent use.
func UncertaintySolver(cfg Config, base Params) uncertainty.Solver {
	ps := newPlanSolver(cfg, base)
	return func(assignment map[string]float64) (float64, error) {
		p, err := ApplyOverrides(base, assignment)
		if err != nil {
			return 0, err
		}
		_, downtime, err := ps.solve(p)
		return downtime, err
	}
}

// PaperImportanceRanges returns the six uncertainty parameters with their
// Section 5 nominal values and Section 7 ranges, ready for the
// one-at-a-time importance analysis in package sensitivity.
func PaperImportanceRanges(base Params) []sensitivity.ImportanceRange {
	return []sensitivity.ImportanceRange{
		{Name: ParamASFailures, Base: base.ASFailuresPerYear, Low: 10, High: 50},
		{Name: ParamHADBFailures, Base: base.HADBFailuresPerYear, Low: 1, High: 4},
		{Name: ParamOSFailures, Base: base.ASOSFailuresPerYear, Low: 0.5, High: 2},
		{Name: ParamHWFailures, Base: base.ASHWFailuresPerYear, Low: 0.5, High: 2},
		{Name: ParamTstartLong, Base: base.ASRestartLong.Hours(), Low: 0.5, High: 3},
		{Name: ParamFIR, Base: base.FIR, Low: 0, High: 0.002},
	}
}

// ImportanceSolver adapts a configuration to the importance analysis: the
// measure is yearly downtime in minutes.
func ImportanceSolver(cfg Config, base Params) sensitivity.MultiSolver {
	return sensitivity.MultiSolver(UncertaintySolver(cfg, base))
}

// TstartLongSweepSolver adapts a configuration to the sensitivity package
// for the paper's Figures 5/6 sweep: the swept value is the AS HW/OS
// recovery time in hours.
func TstartLongSweepSolver(cfg Config, base Params) sensitivity.Solver {
	return SweepSolver(cfg, base, ParamTstartLong)
}

// SweepSolver generalizes the Figures 5/6 sweep to any of the §7 analysis
// parameters (see the Param* constants): the swept value is the parameter
// in its natural unit (per year for rates, hours for Tstart_long, a
// fraction for FIR). Like UncertaintySolver, it compiles the hierarchy
// once and re-rates it per point.
func SweepSolver(cfg Config, base Params, param string) sensitivity.Solver {
	ps := newPlanSolver(cfg, base)
	return func(value float64) (float64, float64, error) {
		p, err := ApplyOverrides(base, map[string]float64{param: value})
		if err != nil {
			return 0, 0, err
		}
		return ps.solve(p)
	}
}

// SweepSolverBackend is SweepSolver routed through the chosen solver
// backend, so the Figures 5/6 sweeps can be reproduced (and
// cross-checked) on either engine.
func SweepSolverBackend(cfg Config, base Params, param string, kind backend.Kind) sensitivity.Solver {
	if kind == backend.KindCTMC || kind == "" {
		return SweepSolver(cfg, base, param)
	}
	return func(value float64) (float64, float64, error) {
		p, err := ApplyOverrides(base, map[string]float64{param: value})
		if err != nil {
			return 0, 0, err
		}
		res, err := SolveBackend(context.Background(), cfg, p, kind)
		if err != nil {
			return 0, 0, err
		}
		return res.Availability, res.YearlyDowntimeMinutes, nil
	}
}

// ReplicationPoint is one sample of a replication-factor sweep: a k-of-n
// AS cluster's availability.
type ReplicationPoint struct {
	Instances int
	Quorum    int
	// Availability and YearlyDowntimeMinutes are the solved measures.
	Availability          float64
	YearlyDowntimeMinutes float64
	// Size is the solved model's size (CTMC states or BN variables).
	Size int
}

// ReplicationSweep evaluates k-of-n AS cluster availability for every
// replica count n in [from, to] with stride step, where the quorum is
// k = ⌈quorumFrac·n⌉ (clamped to ≥ 1). The bayes backend solves any n;
// the ctmc backend uses the exact flat cross-product and fails with
// hier.ErrBadComponent once 3^n passes hier.MaxProductStates (n ≈ 12) —
// which is the point of the sweep: it walks straight through the wall
// that separates the two backends.
func ReplicationSweep(ctx context.Context, p Params, from, to, step int, quorumFrac float64, kind backend.Kind) ([]ReplicationPoint, error) {
	if from < 1 || to < from || step < 1 {
		return nil, fmt.Errorf("replication sweep range [%d, %d] step %d: %w", from, to, step, ErrBadConfig)
	}
	if !(quorumFrac > 0 && quorumFrac <= 1) {
		return nil, fmt.Errorf("quorum fraction %g outside (0, 1]: %w", quorumFrac, ErrBadConfig)
	}
	var out []ReplicationPoint
	for n := from; n <= to; n += step {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("replication sweep canceled: %w", err)
			}
		}
		k := int(math.Ceil(quorumFrac * float64(n)))
		if k < 1 {
			k = 1
		}
		q := ClusterQuorum{Instances: n, Quorum: k}
		pt := ReplicationPoint{Instances: n, Quorum: k}
		switch kind {
		case backend.KindBayes:
			net, err := ClusterBayes(p, q)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			res, err := net.Solve(ctx)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			pt.Availability = res.Availability
			pt.YearlyDowntimeMinutes = res.YearlyDowntimeMinutes
			pt.Size = res.Size
		case backend.KindCTMC, "":
			s, err := ClusterProduct(p, q)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			res, err := solvePooled(s)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			pt.Availability = res.Availability
			pt.YearlyDowntimeMinutes = res.YearlyDowntimeMinutes
			pt.Size = s.Model().NumStates()
		default:
			return nil, fmt.Errorf("unknown backend %q: %w", kind, ErrBadConfig)
		}
		out = append(out, pt)
	}
	return out, nil
}
