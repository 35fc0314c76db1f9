package jsas

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/bayes"
	"repro/internal/ctmc"
	"repro/internal/hier"
	"repro/internal/reward"
)

// BayesModel builds the hybrid hierarchical–Bayesian-network model of a
// JSAS configuration: the leaf submodels (the AS cluster and the HADB
// node pair) are solved exactly by the CTMC engine, and their
// steady-state availabilities become basic-event priors composed by a
// Bayesian network instead of the Figure 2 top-level chain — the system
// is up iff the AS cluster event and every one of the P pair events hold.
//
// The composition assumes the submodels fail independently, which the
// paper's hierarchy also assumes; for the paper's availabilities the two
// compositions differ by O(r_as·r_hadb) ≈ 1e-11, far inside Table 2/3
// reporting precision. The payoff is scale: the BN composition extends to
// replication counts (k-of-n quorums, 100-pair farms) where the flat
// cross-product CTMC is intractable — see ClusterBayes.
func BayesModel(cfg Config, p Params) (*bayes.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	as, err := BuildAppServer(p, cfg.ASInstances)
	if err != nil {
		return nil, err
	}
	asRes, err := solvePooled(as)
	if err != nil {
		return nil, fmt.Errorf("AS submodel: %w", err)
	}
	b := bayes.NewBuilder(fmt.Sprintf("JSAS (%s)", cfg))
	events := []bayes.Node{b.Basic("ApplServer", asRes.Availability)}
	// Total independent equivalent failure rate at the top level — the
	// same base the CTMC backend's beta-factor state scales from.
	totalInd := asRes.LambdaEq
	if cfg.HADBPairs > 0 {
		pair, err := BuildHADBPair(p)
		if err != nil {
			return nil, err
		}
		pairRes, err := solvePooled(pair)
		if err != nil {
			return nil, fmt.Errorf("HADB submodel: %w", err)
		}
		for i := 1; i <= cfg.HADBPairs; i++ {
			events = append(events, b.Basic(fmt.Sprintf("HADBPair%d", i), pairRes.Availability))
		}
		totalInd += float64(cfg.HADBPairs) * pairRes.LambdaEq
	}
	root := b.And("JSAS", events...)
	if p.Beta > 0 && totalInd > 0 {
		// Beta-factor common cause as a noisy-OR leak: the shared mode is
		// an independent two-state process with availability A_cc, and
		// the system is up iff the independent composition holds AND the
		// shared mode has not fired — P(up) = A_cc · P(root), i.e. a
		// noisy-OR failure gate with leak 1−A_cc and weight-1 passthrough
		// of the independent root.
		laCC := p.Beta / (1 - p.Beta) * totalInd
		muCC := 1 / p.CommonCauseRestore.Hours()
		aCC := muCC / (laCC + muCC)
		root = b.NoisyOr("JSAS+CC", 1-aCC, []bayes.Node{root}, []float64{1})
	}
	net, err := b.Build(root)
	if err != nil {
		return nil, fmt.Errorf("jsas: bayes compose: %w", err)
	}
	return net, nil
}

// solvePooled solves a submodel with a pooled solve context.
func solvePooled(s *reward.Structure) (*reward.Result, error) {
	sv := solverPool.Get().(*ctmc.Solver)
	defer solverPool.Put(sv)
	return s.Solve(ctmc.SolveOptions{Solver: sv})
}

// SolveBackend solves a configuration with the chosen backend and returns
// the backend-independent result — the common entry point for the CLI's
// -backend flag and the jobs engine's bayes kind.
func SolveBackend(ctx context.Context, cfg Config, p Params, kind backend.Kind) (*backend.Result, error) {
	switch kind {
	case backend.KindCTMC, "":
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("jsas solve canceled: %w", err)
			}
		}
		res, err := Solve(cfg, p)
		if err != nil {
			return nil, err
		}
		// Size: the states of the chains solved — the AS submodel, the
		// pair model when present, and the top model.
		size := len(res.ASSubmodel.Pi) + len(res.System.Pi)
		if res.HADBSubmodel != nil {
			size += len(res.HADBSubmodel.Pi)
		}
		return &backend.Result{
			Backend:               backend.KindCTMC,
			Name:                  fmt.Sprintf("JSAS (%s)", cfg),
			Availability:          res.Availability,
			YearlyDowntimeMinutes: res.YearlyDowntimeMinutes,
			Size:                  size,
		}, nil
	case backend.KindBayes:
		net, err := BayesModel(cfg, p)
		if err != nil {
			return nil, err
		}
		return net.Solve(ctx)
	default:
		return nil, fmt.Errorf("unknown backend %q: %w", kind, ErrBadConfig)
	}
}

// ClusterQuorum describes a replicated AS deployment where service
// requires a quorum: n independent single-instance servers of which at
// least k must be up. This is the regime the paper's hierarchy cannot
// express (its cluster model only distinguishes "all down") and the flat
// cross-product CTMC cannot reach (3^n states).
type ClusterQuorum struct {
	// Instances is the replica count n.
	Instances int
	// Quorum is the required up count k (1 ≤ k ≤ n).
	Quorum int
}

// Validate checks the quorum shape.
func (q ClusterQuorum) Validate() error {
	if q.Instances < 1 {
		return fmt.Errorf("cluster of %d instances, want ≥ 1: %w", q.Instances, ErrBadConfig)
	}
	if q.Quorum < 1 || q.Quorum > q.Instances {
		return fmt.Errorf("quorum %d of %d instances: %w", q.Quorum, q.Instances, ErrBadConfig)
	}
	return nil
}

// instanceStructure builds the per-replica leaf: the single-instance AS
// model (3 states: working, short restart, long restart).
func instanceStructure(p Params) (*reward.Structure, error) {
	return BuildAppServer(p, 1)
}

// ClusterBayes builds the k-of-n quorum model as a Bayesian network: the
// per-instance 3-state submodel is solved exactly by the CTMC engine and
// its availability becomes each replica's basic-event prior; the quorum
// is a k-of-n gate with cost linear in n. A 100-instance farm solves in
// milliseconds where ClusterProduct stops at hier.MaxProductStates.
func ClusterBayes(p Params, q ClusterQuorum) (*bayes.Network, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	inst, err := instanceStructure(p)
	if err != nil {
		return nil, err
	}
	res, err := solvePooled(inst)
	if err != nil {
		return nil, fmt.Errorf("AS instance submodel: %w", err)
	}
	b := bayes.NewBuilder(fmt.Sprintf("AS cluster %d-of-%d", q.Quorum, q.Instances))
	replicas := make([]bayes.Node, q.Instances)
	for i := range replicas {
		replicas[i] = b.Basic(fmt.Sprintf("AS%d", i+1), res.Availability)
	}
	net, err := b.Build(b.KOfN("Quorum", q.Quorum, replicas...))
	if err != nil {
		return nil, fmt.Errorf("jsas: cluster compose: %w", err)
	}
	return net, nil
}

// ClusterProduct is the exact flat-CTMC alternative to ClusterBayes: the
// full cross-product of n independent 3-state instance chains with the
// quorum predicate as the reward structure. It is exact at any n the
// state space allows, but 3^n states hit hier.MaxProductStates around
// n = 12 — precisely the wall the BN backend exists to pass. Both
// backends being exact for independent replicas, they must agree to
// solver tolerance wherever ClusterProduct is tractable (the
// cross-validation suite enforces this).
func ClusterProduct(p Params, q ClusterQuorum) (*reward.Structure, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	inst, err := instanceStructure(p)
	if err != nil {
		return nil, err
	}
	components := make([]*reward.Structure, q.Instances)
	for i := range components {
		components[i] = inst
	}
	k := q.Quorum
	return hier.Product(components, func(up []bool) bool {
		got := 0
		for _, u := range up {
			if u {
				got++
			}
		}
		return got >= k
	})
}
