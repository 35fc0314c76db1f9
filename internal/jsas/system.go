package jsas

import (
	"fmt"
	"sync"

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
// top-level diagram via their equivalent (λ, μ) rates. Solve and the
// analyses evaluate the same hierarchy through a compiled plan; Components
// under hier.Evaluate is the independent reference they are checked
// against.
func Components(cfg Config, p Params) (*hier.Component, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	as := hier.NewComponent("Appl Server", func(hier.Params) (*reward.Structure, error) {
		return BuildAppServer(p, cfg.ASInstances)
	})
	top := hier.NewComponent("JSAS", func(env hier.Params) (*reward.Structure, error) {
		return buildTopModel(cfg, p, env)
	})
	top.Use(as, "La_appl", "Mu_appl")
	if cfg.HADBPairs > 0 {
		hadb := hier.NewComponent("HADB Node Pair", func(hier.Params) (*reward.Structure, error) {
			return BuildHADBPair(p)
		})
		top.Use(hadb, "La_hadb", "Mu_hadb")
	}
	return top, nil
}

// buildTopModel assembles the Figure 2 diagram (3 states, plus a
// common-cause state when p.Beta > 0) from the submodel equivalent rates
// bound in env.
func buildTopModel(cfg Config, p Params, env hier.Params) (*reward.Structure, error) {
	bound := []float64{env["La_appl"], env["Mu_appl"], env["La_hadb"], env["Mu_hadb"]}
	b := ctmc.NewBuilder()
	emitTopModel(b, cfg, &p, bound)
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("system model: %w", err)
	}
	return topRewards(m)
}

// topRewards marks Ok, the first state emitted, as the top model's only
// working state.
func topRewards(m *ctmc.Model) (*reward.Structure, error) {
	rates := make([]float64, m.NumStates())
	rates[0] = 1
	return reward.New(m, rates)
}

// emitTopModel writes the Figure 2 chain into sk from the submodels'
// equivalent rates: bound holds λ_eq, μ_eq of the AS submodel, then of the
// HADB pair when cfg has one.
func emitTopModel(sk ctmc.Sink, cfg Config, p *Params, bound []float64) {
	laAppl, muAppl := bound[0], bound[1]
	okState := sk.State(SystemStateOk)
	// Total independent top-level failure rate — the base the beta-factor
	// mode scales from.
	totalInd := 0.0
	// A submodel whose equivalent failure rate underflows to zero (e.g. a
	// wide AS cluster with failure rates far below any real one, whose
	// All_Down probability is below the smallest float64) contributes no
	// failure state: adding one would leave it unreachable and the chain
	// reducible.
	if laAppl > 0 && muAppl > 0 {
		asFail := sk.State(SystemStateASFail)
		sk.Transition(okState, asFail, laAppl)
		sk.Transition(asFail, okState, muAppl)
		totalInd += laAppl
	}
	if cfg.HADBPairs > 0 {
		laHADB, muHADB := bound[2], bound[3]
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
}

// compile declares cfg's Figure 2 hierarchy — the same chains as
// Components, written by their emitters — and compiles it at base
// (hier.Compile). It reports an invalid configuration; base is not
// checked, since a point that does not fit a template is built afresh.
func compile(cfg Config, base Params) (*hier.Plan[Params], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.ASInstances
	as := &hier.Node[Params]{
		Name: "Appl Server",
		Emit: func(sk ctmc.Sink, p *Params, _ []float64) {
			// A re-rating sink matches states by position, so only a
			// build names them.
			_, named := sk.(*ctmc.Builder)
			emitAppServer(sk, *p, n, named)
		},
		Rewards: func(m *ctmc.Model) (*reward.Structure, error) { return asRewards(m, n) },
	}
	top := &hier.Node[Params]{
		Name:     "JSAS",
		Emit:     func(sk ctmc.Sink, p *Params, bound []float64) { emitTopModel(sk, cfg, p, bound) },
		Rewards:  topRewards,
		Children: []*hier.Node[Params]{as},
	}
	if cfg.HADBPairs > 0 {
		top.Children = append(top.Children, &hier.Node[Params]{
			Name:    "HADB Node Pair",
			Emit:    func(sk ctmc.Sink, p *Params, _ []float64) { emitHADBPair(sk, *p) },
			Rewards: hadbRewards,
		})
	}
	plan, err := hier.Compile(top, base)
	if err != nil {
		// Every node above is well formed; an error here is a bug.
		panic(fmt.Sprintf("jsas: compiling %v: %v", cfg, err))
	}
	return plan, nil
}

// eval validates p, evaluates cfg's plan at p into ws and returns the
// root's measures, the last of ws.Results.
func eval(cfg Config, plan *hier.Plan[Params], ws *hier.Workspace[Params], p Params) (*reward.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Eval(ws, p); err != nil {
		return nil, fmt.Errorf("solve %v: %w", cfg, err)
	}
	r := ws.Results()
	return &r[len(r)-1], nil
}

// planSolver evaluates one configuration at many parameter points — the
// Figures 5–8 analyses — through its hierarchy compiled once at base
// parameters. A point whose chain does not match its template (FIR = 0
// drops Ok→2_Down, an underflowed La_appl drops AS_Fail, Beta > 0 over a
// Beta = 0 template adds CC_Fail) has that chain built for the point, so
// results and errors are Solve's. A planSolver is safe for concurrent
// use: each call borrows a pooled workspace.
type planSolver struct {
	cfg        Config
	plan       *hier.Plan[Params]
	err        error // the configuration's, reported for every point
	workspaces sync.Pool
}

func newPlanSolver(cfg Config, base Params) *planSolver {
	ps := &planSolver{cfg: cfg}
	ps.plan, ps.err = compile(cfg, base)
	ps.workspaces.New = func() any { return ps.plan.NewWorkspace(ctmc.NewSolver()) }
	return ps
}

// solve returns the system availability and yearly downtime at p.
func (ps *planSolver) solve(p Params) (availability, downtimeMinutes float64, err error) {
	if ps.err != nil {
		return 0, 0, ps.err
	}
	ws := ps.workspaces.Get().(*hier.Workspace[Params])
	defer ps.workspaces.Put(ws)
	top, err := eval(ps.cfg, ps.plan, ws, p)
	if err != nil {
		return 0, 0, err
	}
	return top.Availability, top.YearlyDowntimeMinutes, nil
}

// solverPool recycles dense solver scratch across Solve calls. The JSAS
// chains are tiny but solved in bulk (tables, server requests), so
// reusing the scratch removes most per-solve allocation. Each borrowed
// Solver is used by one goroutine at a time, which is exactly the
// contract ctmc.Solver requires; it holds scratch only, so a borrower's
// results never depend on earlier borrowers.
var solverPool = sync.Pool{New: func() any { return ctmc.NewSolver() }}

// Solve evaluates the full hierarchy for a configuration and returns the
// system-level measures: it compiles the hierarchy at p and evaluates it
// once, on a pooled solver. Analyses that solve one configuration at many
// parameter points go through UncertaintySolver or SweepSolver, which
// compile it once.
func Solve(cfg Config, p Params) (*SystemResult, error) {
	plan, err := compile(cfg, p)
	if err != nil {
		return nil, err
	}
	s := solverPool.Get().(*ctmc.Solver)
	defer solverPool.Put(s)
	ws := plan.NewWorkspace(s)
	top, err := eval(cfg, plan, ws, p)
	if err != nil {
		return nil, err
	}
	// The workspace is this call's own, so its results need no copy.
	r := ws.Results()
	res := &SystemResult{
		Config:                cfg,
		Availability:          top.Availability,
		YearlyDowntimeMinutes: top.YearlyDowntimeMinutes,
		MTBFHours:             top.MTBFHours,
		ASSubmodel:            &r[0],
		System:                top,
	}
	if cfg.HADBPairs > 0 {
		res.HADBSubmodel = &r[1]
	}
	// Downtime split by cause comes from the top-level state occupancy.
	topModel := ws.Chain(len(r) - 1)
	for s := ctmc.State(0); int(s) < topModel.NumStates(); s++ {
		minutes := top.Pi[s] * reward.MinutesPerYear
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
