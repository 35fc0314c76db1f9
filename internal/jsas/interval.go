package jsas

import (
	"fmt"
	"time"
)

// IntervalResult reports a finite-mission availability analysis — the
// hierarchical interval-availability evaluation the paper cites as the
// companion RAScad capability (its reference [18]).
type IntervalResult struct {
	Config Config
	// Mission is the analyzed window length.
	Mission time.Duration
	// IntervalAvailability is the expected fraction of the mission spent
	// in a working state, starting from the fully working state.
	IntervalAvailability float64
	// SteadyStateAvailability is the long-run limit for comparison.
	SteadyStateAvailability float64
	// ExpectedDowntime is the expected cumulative downtime over the
	// mission.
	ExpectedDowntime time.Duration
}

// IntervalAvailability computes the expected availability of a JSAS
// configuration over a finite mission window, via transient analysis of
// the top-level hierarchical model (submodels reduced to equivalent rates,
// then uniformization on the 3-state system chain).
//
// Starting from the working state, interval availability exceeds the
// steady-state value and decays toward it as the mission grows — useful
// when provisioning for, e.g., a trading day or a holiday sale window.
func IntervalAvailability(cfg Config, p Params, mission time.Duration) (*IntervalResult, error) {
	if mission <= 0 {
		return nil, fmt.Errorf("mission %v: %w", mission, ErrBadConfig)
	}
	plan, err := compile(cfg, p)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws := plan.NewWorkspace(nil)
	if err := plan.Eval(ws, p); err != nil {
		return nil, fmt.Errorf("interval availability: %w", err)
	}
	root := len(ws.Results()) - 1
	top, err := ws.Build(root)
	if err != nil {
		return nil, fmt.Errorf("interval availability: %w", err)
	}
	// Start in Ok: the top model's first state and its only working one
	// (topRewards), so the start vector is also the reward vector.
	okOnly := make([]float64, top.Model().NumStates())
	okOnly[0] = 1
	ia, err := top.Model().IntervalAvailability(okOnly, mission.Hours(), okOnly)
	if err != nil {
		return nil, fmt.Errorf("interval availability: %w", err)
	}
	return &IntervalResult{
		Config:                  cfg,
		Mission:                 mission,
		IntervalAvailability:    ia,
		SteadyStateAvailability: ws.Results()[root].Availability,
		ExpectedDowntime:        time.Duration((1 - ia) * float64(mission)),
	}, nil
}
