// Package avail is an availability modeling and measurement toolkit — an
// open reimplementation of the methodology in "Availability Measurement
// and Modeling for An Application Server" (Tang, Kumar, Duvur,
// Torbjornsen; DSN 2004).
//
// The package is a facade over the repository's internal engines:
//
//   - Markov reward models: build CTMCs with Builder, attach rewards, and
//     solve for availability, yearly downtime, MTBF, and equivalent
//     (λ, μ) abstractions (internal/ctmc, internal/reward).
//   - Hierarchical composition in the style of Sun's RAScad tool:
//     submodels are solved bottom-up and bound into parent models
//     (internal/hier).
//   - The paper's concrete JSAS EE7 models and parameters: the HADB
//     node-pair model, the N-instance Application Server model, and the
//     top-level system model (internal/jsas).
//   - Parametric sensitivity sweeps and Monte-Carlo uncertainty analysis
//     (internal/sensitivity, internal/uncertainty).
//   - Measurement-to-parameter estimators: χ² failure-rate upper bounds
//     and binomial/F coverage bounds (internal/estimate, internal/stats).
//   - A discrete-event simulated testbed of the JSAS cluster with fault
//     injection and longevity-run drivers (internal/testbed,
//     internal/faultinject, internal/workload).
//   - A declarative JSON model format (internal/spec).
//
// # Quick start
//
// Solve the paper's Config 1 (2 AS instances, 2 HADB pairs):
//
//	res, err := avail.SolveJSAS(avail.Config1, avail.DefaultParams())
//	if err != nil { ... }
//	fmt.Printf("availability %.5f%%, downtime %.2f min/yr\n",
//	    res.Availability*100, res.YearlyDowntimeMinutes)
//
// Build a custom two-state model:
//
//	b := avail.NewModelBuilder()
//	up, down := b.State("Up"), b.State("Down")
//	b.Transition(up, down, 0.001) // per hour
//	b.Transition(down, up, 4)
//	m, err := b.Build()
//	s, err := avail.BinaryReward(m, "Down")
//	res, err := s.Solve(avail.SolveOptions{})
package avail

import (
	"context"
	"time"

	"repro/internal/ctmc"
	"repro/internal/estimate"
	"repro/internal/hier"
	"repro/internal/jsas"
	"repro/internal/reward"
	"repro/internal/sensitivity"
	"repro/internal/spec"
	"repro/internal/uncertainty"
)

// Core CTMC types.
type (
	// Model is an immutable continuous-time Markov chain.
	Model = ctmc.Model
	// ModelBuilder accumulates states and transitions.
	ModelBuilder = ctmc.Builder
	// State is a state handle within a Model.
	State = ctmc.State
	// SolveOptions configures a steady-state solve: cancellation, a
	// reusable Solver, and a diagnostics sink. The method follows from the
	// chain's size (dense GTH up to 1,200 states, Gauss–Seidel above).
	SolveOptions = ctmc.SolveOptions
	// SolveDiagnostics records how a steady-state solve actually ran
	// (method used, sweeps, residual, dense fallback, wall time); point
	// SolveOptions.Diag at one to collect it.
	SolveDiagnostics = ctmc.Diagnostics
	// Solver is a reusable solve context (scratch storage only: it never
	// changes a result) for repeated solves. Not safe for concurrent use:
	// keep one per goroutine. Set SolveOptions.Solver to thread it
	// through solves.
	Solver = ctmc.Solver
)

// NewSolver returns an empty reusable solve context.
func NewSolver() *Solver { return ctmc.NewSolver() }

// Reward layer types.
type (
	// RewardStructure attaches reward rates to a model's states.
	RewardStructure = reward.Structure
	// Result carries availability, downtime, MTBF, and equivalent rates.
	Result = reward.Result
)

// Hierarchical modeling types.
type (
	// Component is a node in a hierarchical model tree.
	Component = hier.Component
	// HierParams is the parameter environment for hierarchy evaluation.
	HierParams = hier.Params
	// Evaluation is the solved hierarchy result tree.
	Evaluation = hier.Evaluation
)

// JSAS (paper) model types.
type (
	// Params is the paper's Section 5 parameter set.
	Params = jsas.Params
	// Config is a JSAS deployment shape.
	Config = jsas.Config
	// SystemResult is one solved configuration (a Table 2/3 row).
	SystemResult = jsas.SystemResult
)

// Analysis types.
type (
	// UncertaintyRange is a sampled parameter interval.
	UncertaintyRange = uncertainty.Range
	// UncertaintyOptions configures a Monte-Carlo analysis.
	UncertaintyOptions = uncertainty.Options
	// UncertaintyResult summarizes a Monte-Carlo analysis.
	UncertaintyResult = uncertainty.Result
	// SweepPoint is one sample of a parametric sweep.
	SweepPoint = sensitivity.Point
	// SweepOptions tunes how a sweep is driven (worker parallelism).
	SweepOptions = sensitivity.SweepOptions
	// ModelDocument is the declarative JSON model format.
	ModelDocument = spec.Document
)

// Paper configuration presets.
var (
	// Config1 is the paper's Config 1: 2 AS instances, 2 HADB pairs.
	Config1 = jsas.Config1
	// Config2 is the paper's Config 2: 4 AS instances, 4 HADB pairs.
	Config2 = jsas.Config2
)

// NewModelBuilder returns an empty CTMC builder.
func NewModelBuilder() *ModelBuilder { return ctmc.NewBuilder() }

// NewReward attaches per-state reward rates to a model.
func NewReward(m *Model, rates []float64) (*RewardStructure, error) {
	return reward.New(m, rates)
}

// BinaryReward builds a 0/1 reward structure from the named down states.
func BinaryReward(m *Model, downStates ...string) (*RewardStructure, error) {
	return reward.Binary(m, downStates...)
}

// NewComponent creates a hierarchy node from a build function.
func NewComponent(name string, build func(HierParams) (*RewardStructure, error)) *Component {
	return hier.NewComponent(name, build)
}

// EvaluateHierarchy solves a hierarchy bottom-up.
func EvaluateHierarchy(c *Component, params HierParams) (*Evaluation, error) {
	return hier.Evaluate(c, params, hier.Options{})
}

// DefaultParams returns the paper's Section 5 parameters.
func DefaultParams() Params { return jsas.DefaultParams() }

// Table3Configs returns the six configurations of the paper's Table 3.
func Table3Configs() []Config { return jsas.Table3Configs() }

// SolveJSAS evaluates the full JSAS hierarchy for a configuration.
func SolveJSAS(cfg Config, p Params) (*SystemResult, error) {
	return jsas.Solve(cfg, p)
}

// BuildHADBPair constructs the paper's Figure 3 HADB node-pair model.
func BuildHADBPair(p Params) (*RewardStructure, error) {
	return jsas.BuildHADBPair(p)
}

// BuildAppServer constructs the paper's Figure 4 Application Server model
// generalized to n instances.
func BuildAppServer(p Params, n int) (*RewardStructure, error) {
	return jsas.BuildAppServer(p, n)
}

// PaperUncertaintyRanges returns the six sampled parameter ranges of the
// paper's uncertainty analysis.
func PaperUncertaintyRanges() []UncertaintyRange { return jsas.PaperUncertaintyRanges() }

// RunUncertainty performs the Monte-Carlo uncertainty analysis of yearly
// downtime for a JSAS configuration (the paper's Figures 7/8).
func RunUncertainty(cfg Config, p Params, opts UncertaintyOptions) (*UncertaintyResult, error) {
	return uncertainty.Run(jsas.PaperUncertaintyRanges(), jsas.UncertaintySolver(cfg, p), opts)
}

// SweepTstartLong sweeps the AS HW/OS recovery time across [fromHours,
// toHours] (the paper's Figures 5/6).
func SweepTstartLong(cfg Config, p Params, fromHours, toHours float64, steps int) ([]SweepPoint, error) {
	return sensitivity.Sweep(fromHours, toHours, steps, jsas.TstartLongSweepSolver(cfg, p))
}

// SweepTstartLongWith is SweepTstartLong with driver options (parallel
// point evaluation; results are identical at any parallelism).
func SweepTstartLongWith(cfg Config, p Params, fromHours, toHours float64, steps int, opts SweepOptions) ([]SweepPoint, error) {
	return sensitivity.SweepWith(context.Background(), fromHours, toHours, steps, jsas.TstartLongSweepSolver(cfg, p), opts)
}

// FailureRateBound is a one-sided upper confidence bound on a failure rate.
type FailureRateBound = estimate.FailureRateBound

// CoverageBound is a one-sided lower confidence bound on recovery coverage.
type CoverageBound = estimate.CoverageBound

// FailureRateUpperBound applies the paper's Equation (2) χ² bound: given
// total exposure and an observed failure count, it bounds the failure rate
// from above at the stated confidence.
func FailureRateUpperBound(exposure time.Duration, failures int, confidence float64) (FailureRateBound, error) {
	return estimate.FailureRateUpperBound(exposure, failures, confidence)
}

// CoverageLowerBound applies the paper's Equation (1) bound: given a fault
// injection campaign's trial and success counts, it bounds the coverage
// (1 − FIR) from below at the stated confidence.
func CoverageLowerBound(trials, successes int, confidence float64) (CoverageBound, error) {
	return estimate.CoverageLowerBound(trials, successes, confidence)
}
