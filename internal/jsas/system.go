package jsas

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ctmc"
	"repro/internal/hier"
	"repro/internal/reward"
)

// Top-level system model state names (Figure 2 of the paper).
const (
	SystemStateOk       = "Ok"
	SystemStateASFail   = "AS_Fail"
	SystemStateHADBFail = "HADB_Fail"
	// SystemStateCCFail is the beta-factor common-cause failure state,
	// present only when Params.Beta > 0.
	SystemStateCCFail = "CC_Fail"
)

// SystemResult aggregates the solved measures for one configuration —
// one row of the paper's Table 2 / Table 3.
type SystemResult struct {
	Config Config
	// Availability is the steady-state system availability.
	Availability float64
	// YearlyDowntimeMinutes is total expected downtime per (365-day) year.
	YearlyDowntimeMinutes float64
	// DowntimeASMinutes is the share of yearly downtime attributed to the
	// Application Server submodel (state AS_Fail).
	DowntimeASMinutes float64
	// DowntimeHADBMinutes is the share attributed to the HADB submodel.
	DowntimeHADBMinutes float64
	// DowntimeCommonCauseMinutes is the share attributed to the
	// beta-factor common-cause state (0 when Params.Beta == 0).
	DowntimeCommonCauseMinutes float64
	// MTBFHours is the mean time between system failures.
	MTBFHours float64
	// ASSubmodel and HADBSubmodel carry the solved submodel measures
	// (HADBSubmodel is nil when the configuration has no HADB pairs).
	ASSubmodel   *reward.Result
	HADBSubmodel *reward.Result
	// System carries the top-level model measures.
	System *reward.Result
}

// Components returns the hierarchical model for a configuration, with the
// Application Server and HADB node-pair submodels bound into the Figure 2
// top-level diagram via their equivalent (λ, μ) rates.
func Components(cfg Config, p Params) (*hier.Component, error) {
	return components(cfg, p, nil)
}

// components is Components with each chain re-rated from c's templates
// where they match (a nil c builds every chain afresh).
func components(cfg Config, p Params, c *compiled) (*hier.Component, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	as := hier.NewComponent("Appl Server", func(hier.Params) (*reward.Structure, error) {
		return c.appServer(p, cfg.ASInstances)
	})
	top := hier.NewComponent("JSAS", func(env hier.Params) (*reward.Structure, error) {
		return c.topModel(cfg, p, env)
	})
	top.Use(as, "La_appl", "Mu_appl")
	if cfg.HADBPairs > 0 {
		hadb := hier.NewComponent("HADB Node Pair", func(hier.Params) (*reward.Structure, error) {
			return c.hadbPair(p)
		})
		top.Use(hadb, "La_hadb", "Mu_hadb")
	}
	return top, nil
}

// buildTopModel assembles the Figure 2 diagram (3 states, plus a
// common-cause state when p.Beta > 0) from the submodel equivalent rates
// bound in env.
func buildTopModel(cfg Config, p Params, env hier.Params) (*reward.Structure, error) {
	b := ctmc.NewBuilder()
	if err := emitTopModel(b, cfg, p, env); err != nil {
		return nil, err
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("system model: %w", err)
	}
	// Ok is the first state emitted; every other state is a failure state.
	rates := make([]float64, m.NumStates())
	rates[0] = 1
	return reward.New(m, rates)
}

// emitTopModel writes the Figure 2 chain into sk.
func emitTopModel(sk ctmc.Sink, cfg Config, p Params, env hier.Params) error {
	laAppl, ok := env["La_appl"]
	if !ok {
		return fmt.Errorf("missing La_appl binding: %w", ErrBadConfig)
	}
	muAppl := env["Mu_appl"]
	okState := sk.State(SystemStateOk)
	// Total independent top-level failure rate — the base the beta-factor
	// mode scales from.
	totalInd := 0.0
	// A submodel whose equivalent failure rate underflows to zero (e.g. a
	// very wide AS cluster) contributes no failure state: adding one would
	// leave it unreachable and the chain reducible.
	if laAppl > 0 && muAppl > 0 {
		asFail := sk.State(SystemStateASFail)
		sk.Transition(okState, asFail, laAppl)
		sk.Transition(asFail, okState, muAppl)
		totalInd += laAppl
	}
	if cfg.HADBPairs > 0 {
		laHADB, okh := env["La_hadb"]
		if !okh {
			return fmt.Errorf("missing La_hadb binding: %w", ErrBadConfig)
		}
		muHADB := env["Mu_hadb"]
		if laHADB > 0 && muHADB > 0 {
			hadbFail := sk.State(SystemStateHADBFail)
			sk.Transition(okState, hadbFail, float64(cfg.HADBPairs)*laHADB)
			sk.Transition(hadbFail, okState, muHADB)
			totalInd += float64(cfg.HADBPairs) * laHADB
		}
	}
	if p.Beta > 0 && totalInd > 0 {
		// Beta-factor common-cause mode: a shared failure (power domain,
		// switch, bad push) takes the whole system down at rate
		// La_cc = Beta/(1−Beta) · La_independent, so a fraction Beta of
		// system failures arrive via the shared cause — matching the
		// common-cause fraction a correlated injection campaign measures.
		laCC := p.Beta / (1 - p.Beta) * totalInd
		muCC := 1 / p.CommonCauseRestore.Hours()
		ccFail := sk.State(SystemStateCCFail)
		sk.Transition(okState, ccFail, laCC)
		sk.Transition(ccFail, okState, muCC)
	}
	return nil
}

// compiled holds one configuration's chain templates, each built once
// from base parameters by the emitter that later re-rates it: an analysis
// that solves the configuration at many parameter points rewrites rates
// instead of rebuilding chains. A chain whose emission does not match its
// template (a rate became zero, the top model gained or lost a state —
// see ctmc.Rerate) is built afresh, so results and errors are exactly
// those of a fresh build. Templates are read-only once compiled, so a
// *compiled is safe for concurrent use. A nil *compiled, or a nil
// template, always builds.
type compiled struct {
	cfg           Config
	as, hadb, top *reward.Structure
	// fallbacks counts chains built afresh because re-rating did not
	// match (or the template failed to compile).
	fallbacks atomic.Int64
}

// compile builds cfg's chain templates at base. A chain that fails to
// build leaves its template nil; its evaluations then take the build
// path and report the build's error.
func compile(cfg Config, base Params) *compiled {
	c := &compiled{cfg: cfg}
	c.as, _ = BuildAppServer(base, cfg.ASInstances)
	if cfg.HADBPairs > 0 {
		c.hadb, _ = BuildHADBPair(base)
	}
	// The top model's shape depends only on which bound rates are
	// positive, so placeholders stand in for the submodels' equivalent
	// rates.
	c.top, _ = buildTopModel(cfg, base, hier.Params{"La_appl": 1, "Mu_appl": 1, "La_hadb": 1, "Mu_hadb": 1})
	return c
}

// rerate re-rates tmpl with the rates emit writes; ok is false when there
// is no template or the emission does not match it.
func (c *compiled) rerate(tmpl *reward.Structure, emit func(ctmc.Sink)) (*reward.Structure, bool) {
	if tmpl != nil {
		if m, ok := ctmc.Rerate(tmpl.Model(), emit); ok {
			if s, err := tmpl.WithModel(m); err == nil {
				return s, true
			}
		}
	}
	c.fallbacks.Add(1)
	return nil, false
}

func (c *compiled) appServer(p Params, n int) (*reward.Structure, error) {
	if c != nil {
		if s, ok := c.rerate(c.as, func(sk ctmc.Sink) { emitAppServer(sk, p, n, false) }); ok {
			return s, nil
		}
	}
	return BuildAppServer(p, n)
}

func (c *compiled) hadbPair(p Params) (*reward.Structure, error) {
	if c != nil {
		if s, ok := c.rerate(c.hadb, func(sk ctmc.Sink) { emitHADBPair(sk, p) }); ok {
			return s, nil
		}
	}
	return BuildHADBPair(p)
}

func (c *compiled) topModel(cfg Config, p Params, env hier.Params) (*reward.Structure, error) {
	if c != nil {
		var err error
		if s, ok := c.rerate(c.top, func(sk ctmc.Sink) { err = emitTopModel(sk, cfg, p, env) }); ok && err == nil {
			return s, nil
		}
	}
	return buildTopModel(cfg, p, env)
}

// solve evaluates the hierarchy at p through the templates, drawing a
// pooled solve context like Solve.
func (c *compiled) solve(p Params) (*SystemResult, error) {
	s := solverPool.Get().(*ctmc.Solver)
	defer solverPool.Put(s)
	return solveWith(c.cfg, p, s, c)
}

// solverPool recycles solve contexts across Solve calls. The JSAS chains
// are tiny but solved in bulk (tables, sweeps, Monte-Carlo sampling), so
// reusing the dense scratch and warm-start caches removes nearly all
// per-solve allocation. Each borrowed Solver is used by one goroutine at a
// time, which is exactly the contract ctmc.Solver requires.
var solverPool = sync.Pool{New: func() any { return ctmc.NewSolver() }}

// Solve evaluates the full hierarchy for a configuration and returns the
// system-level measures. It draws a pooled solve context; callers that
// manage their own (e.g. per-worker) contexts should use SolveWith.
func Solve(cfg Config, p Params) (*SystemResult, error) {
	s := solverPool.Get().(*ctmc.Solver)
	defer solverPool.Put(s)
	return SolveWith(cfg, p, s)
}

// SolveWith evaluates the full hierarchy for a configuration using the
// caller-supplied solve context (which must not be shared across
// goroutines; pass nil to allocate per solve).
func SolveWith(cfg Config, p Params, s *ctmc.Solver) (*SystemResult, error) {
	return solveWith(cfg, p, s, nil)
}

// solveWith is SolveWith through c's templates (nil c: fresh builds).
func solveWith(cfg Config, p Params, s *ctmc.Solver, c *compiled) (*SystemResult, error) {
	top, err := components(cfg, p, c)
	if err != nil {
		return nil, err
	}
	ev, err := hier.Evaluate(top, nil, hier.Options{Solve: ctmc.SolveOptions{Solver: s}})
	if err != nil {
		return nil, fmt.Errorf("solve %v: %w", cfg, err)
	}
	res := &SystemResult{
		Config:       cfg,
		Availability: ev.Result.Availability,
		System:       ev.Result,
	}
	res.YearlyDowntimeMinutes = ev.Result.YearlyDowntimeMinutes
	if ev.Result.FailureFrequency > 0 {
		res.MTBFHours = ev.Result.MTBFHours
	}
	if asEv := ev.Find("Appl Server"); asEv != nil {
		res.ASSubmodel = asEv.Result
	}
	if hadbEv := ev.Find("HADB Node Pair"); hadbEv != nil {
		res.HADBSubmodel = hadbEv.Result
	}
	// Downtime split by cause comes from the top-level state occupancy.
	topModel := ev.Structure.Model()
	for s := ctmc.State(0); int(s) < topModel.NumStates(); s++ {
		minutes := ev.Result.Pi[s] * reward.MinutesPerYear
		switch topModel.Name(s) {
		case SystemStateASFail:
			res.DowntimeASMinutes = minutes
		case SystemStateHADBFail:
			res.DowntimeHADBMinutes = minutes
		case SystemStateCCFail:
			res.DowntimeCommonCauseMinutes = minutes
		}
	}
	return res, nil
}
