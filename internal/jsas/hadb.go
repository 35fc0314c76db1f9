package jsas

import (
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/reward"
)

// HADB node-pair model state names (Figure 3 of the paper).
const (
	HADBStateOk           = "Ok"
	HADBStateRestartShort = "RestartShort"
	HADBStateRestartLong  = "RestartLong"
	HADBStateRepair       = "Repair"
	HADBStateMaintenance  = "Maintenance"
	HADBStateDown         = "2_Down"
)

// BuildHADBPair constructs the Markov reward model of one HADB mirrored
// node pair, exactly as in Figure 3:
//
//   - From Ok, a node failure of class x (HADB software, OS, HW) occurs at
//     rate 2·λ_x; with probability 1−FIR the pair enters the matching
//     recovery state (RestartShort, RestartLong, Repair), with probability
//     FIR the recovery is imperfect and the pair fails outright (2_Down).
//   - Scheduled maintenance enters Maintenance at rate La_mnt and switches
//     back after Tmnt.
//   - In every single-node state the surviving node fails at the
//     workload-accelerated rate Acc·λ, losing the pair (2_Down).
//   - 2_Down is repaired by human intervention at rate 1/Trestore.
//
// All recovery and maintenance states carry reward 1 (one node still
// serves data); only 2_Down is a failure state.
func BuildHADBPair(p Params) (*reward.Structure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := ctmc.NewBuilder()
	emitHADBPair(b, p)
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("HADB pair model: %w", err)
	}
	s, err := hadbRewards(m)
	if err != nil {
		return nil, fmt.Errorf("HADB pair model: %w", err)
	}
	return s, nil
}

// hadbRewards marks 2_Down as the node pair's only failure state.
func hadbRewards(m *ctmc.Model) (*reward.Structure, error) {
	return reward.Binary(m, HADBStateDown)
}

// emitHADBPair writes the Figure 3 node-pair chain into sk.
func emitHADBPair(sk ctmc.Sink, p Params) {
	laHADB := p.HADBFailuresPerYear / hoursPerYear
	laOS := p.HADBOSFailuresPerYear / hoursPerYear
	laHW := p.HADBHWFailuresPerYear / hoursPerYear
	la := p.hadbNodeFailurePerHour()
	laMnt := p.MaintenancePerYear / hoursPerYear
	acc := p.Acceleration

	ok := sk.State(HADBStateOk)
	rs := sk.State(HADBStateRestartShort)
	rl := sk.State(HADBStateRestartLong)
	rep := sk.State(HADBStateRepair)
	mnt := sk.State(HADBStateMaintenance)
	down := sk.State(HADBStateDown)

	sk.Transition(ok, rs, 2*laHADB*(1-p.FIR))
	sk.Transition(ok, rl, 2*laOS*(1-p.FIR))
	sk.Transition(ok, rep, 2*laHW*(1-p.FIR))
	sk.Transition(ok, down, 2*la*p.FIR)
	sk.Transition(ok, mnt, laMnt)

	sk.Transition(rs, ok, 1/p.HADBRestartShort.Hours())
	sk.Transition(rl, ok, 1/p.HADBRestartLong.Hours())
	sk.Transition(rep, ok, 1/p.HADBRepair.Hours())
	sk.Transition(mnt, ok, 1/p.MaintenanceSwitchover.Hours())

	for _, s := range []ctmc.State{rs, rl, rep, mnt} {
		sk.Transition(s, down, acc*la)
	}
	sk.Transition(down, ok, 1/p.HADBRestore.Hours())
}
