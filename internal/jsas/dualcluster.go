package jsas

import (
	"fmt"
	"time"

	"repro/internal/ctmc"
	"repro/internal/hier"
	"repro/internal/reward"
)

// UpgradePolicy describes scheduled online upgrades performed cluster-by-
// cluster — the deployment practice the paper's §4 describes ("online
// upgrades ... can be orchestrated by the administrator, using single or
// dual cluster deployments") but leaves out of its single-cluster model.
type UpgradePolicy struct {
	// PerYear is the number of upgrade campaigns per year per cluster
	// (application, AS, OS, or hardware updates).
	PerYear float64
	// Window is the duration a cluster is offline per upgrade.
	Window time.Duration
}

// Validate checks the policy.
func (u UpgradePolicy) Validate() error {
	if u.PerYear < 0 {
		return fmt.Errorf("upgrade rate %g < 0: %w", u.PerYear, ErrBadConfig)
	}
	if u.PerYear > 0 && u.Window <= 0 {
		return fmt.Errorf("upgrade window %v: %w", u.Window, ErrBadConfig)
	}
	return nil
}

// DualClusterResult compares deployment strategies under an upgrade
// policy.
type DualClusterResult struct {
	// SingleCluster is the availability of one cluster absorbing the
	// upgrade windows as planned downtime.
	SingleCluster float64
	// SingleClusterDowntimeMinutes is its total yearly downtime
	// (unplanned + planned).
	SingleClusterDowntimeMinutes float64
	// DualCluster is the availability of two clusters behind a global
	// load balancer, upgraded one at a time: the system is down only when
	// both clusters are down simultaneously.
	DualCluster float64
	// DualClusterDowntimeMinutes is the dual deployment's yearly
	// downtime.
	DualClusterDowntimeMinutes float64
}

// SolveDualCluster evaluates the single- vs dual-cluster upgrade
// strategies for a configuration. Each cluster is first reduced to its
// equivalent (λ, μ) via the standard hierarchy; upgrades add a planned
// outage mode (rate PerYear, duration Window). The dual deployment
// composes two independent clusters and is down only when both are.
//
// The paper's conclusion is implicit but follows from its redundancy
// arguments: a dual-cluster deployment makes planned upgrade downtime
// (which dominates a single cluster's budget) essentially invisible.
func SolveDualCluster(cfg Config, p Params, upgrade UpgradePolicy) (*DualClusterResult, error) {
	if err := upgrade.Validate(); err != nil {
		return nil, err
	}
	base, err := Solve(cfg, p)
	if err != nil {
		return nil, err
	}
	laEq := base.System.LambdaEq
	muEq := base.System.MuEq
	cluster, err := clusterWithUpgrades(laEq, muEq, upgrade)
	if err != nil {
		return nil, err
	}
	single, err := cluster.Solve(ctmc.SolveOptions{})
	if err != nil {
		return nil, fmt.Errorf("dual cluster: %w", err)
	}
	res := &DualClusterResult{
		SingleCluster:                single.Availability,
		SingleClusterDowntimeMinutes: single.YearlyDowntimeMinutes,
	}
	// Dual deployment: independent clusters; system up if either is up.
	// Upgrades are coordinated (never simultaneous), which we model
	// conservatively as independent upgrade windows — coordination only
	// helps.
	prod, err := hier.Product([]*reward.Structure{cluster, cluster},
		func(u []bool) bool { return u[0] || u[1] })
	if err != nil {
		return nil, fmt.Errorf("dual cluster: %w", err)
	}
	dual, err := prod.Solve(ctmc.SolveOptions{})
	if err != nil {
		return nil, fmt.Errorf("dual cluster: %w", err)
	}
	res.DualCluster = dual.Availability
	res.DualClusterDowntimeMinutes = dual.YearlyDowntimeMinutes
	return res, nil
}

// clusterWithUpgrades builds a 3-state cluster model: Up, an unplanned
// Down (equivalent rates), and a planned Upgrade outage.
func clusterWithUpgrades(laEq, muEq float64, upgrade UpgradePolicy) (*reward.Structure, error) {
	b := ctmc.NewBuilder()
	up := b.State("Up")
	down := b.State("Down")
	downNames := []string{"Down"}
	b.Transition(up, down, laEq)
	b.Transition(down, up, muEq)
	if upgrade.PerYear > 0 {
		upg := b.State("Upgrade")
		b.Transition(up, upg, upgrade.PerYear/hoursPerYear)
		b.Transition(upg, up, 1/upgrade.Window.Hours())
		downNames = append(downNames, "Upgrade")
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster with upgrades: %w", err)
	}
	s, err := reward.Binary(m, downNames...)
	if err != nil {
		return nil, fmt.Errorf("cluster with upgrades: %w", err)
	}
	return s, nil
}
