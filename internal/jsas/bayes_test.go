package jsas

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/hier"
)

// crossValidationTolerance bounds the allowed CTMC-vs-BN disagreement on
// the paper's configurations. The two compositions differ only in how the
// independent submodels are combined (series CTMC vs product of
// availabilities), a discrepancy of O(r_as·r_hadb) ≈ 1e-11; 1e-6 leaves
// three orders of headroom while still catching any structural mistake.
const crossValidationTolerance = 1e-6

// TestBayesCTMCCrossValidation is the verify-gated agreement suite: both
// backends must reproduce the paper's Table 2 availabilities for Config 1
// and Config 2 within tolerance, and must agree with each other on every
// Table 3 configuration.
func TestBayesCTMCCrossValidation(t *testing.T) {
	p := DefaultParams()
	paper := map[Config]float64{
		Config1: 0.9999933,
		Config2: 0.9999956,
	}
	for _, cfg := range Table3Configs() {
		ctmcRes, err := SolveBackend(context.Background(), cfg, p, backend.KindCTMC)
		if err != nil {
			t.Fatalf("%v ctmc: %v", cfg, err)
		}
		bayesRes, err := SolveBackend(context.Background(), cfg, p, backend.KindBayes)
		if err != nil {
			t.Fatalf("%v bayes: %v", cfg, err)
		}
		if diff := math.Abs(ctmcRes.Availability - bayesRes.Availability); diff > crossValidationTolerance {
			t.Errorf("%v: ctmc %.9f vs bayes %.9f (diff %.2g > %.2g)",
				cfg, ctmcRes.Availability, bayesRes.Availability, diff, crossValidationTolerance)
		}
		if want, ok := paper[cfg]; ok {
			if math.Abs(bayesRes.Availability-want) > 5e-7 {
				t.Errorf("%v: bayes availability %.7f, want paper value ~%.7f", cfg, bayesRes.Availability, want)
			}
		}
		if bayesRes.Backend != backend.KindBayes || ctmcRes.Backend != backend.KindCTMC {
			t.Errorf("%v: backend tags wrong: %v / %v", cfg, ctmcRes.Backend, bayesRes.Backend)
		}
	}
}

// TestClusterBackendsAgree cross-validates the quorum models where both
// are tractable: for independent replicas the product CTMC's stationary
// distribution factorizes, so ClusterProduct and ClusterBayes are both
// exact and must agree to solver tolerance.
func TestClusterBackendsAgree(t *testing.T) {
	p := DefaultParams()
	for _, q := range []ClusterQuorum{
		{Instances: 2, Quorum: 1},
		{Instances: 3, Quorum: 2},
		{Instances: 5, Quorum: 3},
		{Instances: 8, Quorum: 8},
	} {
		flat, err := ClusterProduct(p, q)
		if err != nil {
			t.Fatalf("%+v product: %v", q, err)
		}
		flatRes, err := solvePooled(flat)
		if err != nil {
			t.Fatalf("%+v product solve: %v", q, err)
		}
		net, err := ClusterBayes(p, q)
		if err != nil {
			t.Fatalf("%+v bayes: %v", q, err)
		}
		bayesRes, err := net.Solve(context.Background())
		if err != nil {
			t.Fatalf("%+v bayes solve: %v", q, err)
		}
		if diff := math.Abs(flatRes.Availability - bayesRes.Availability); diff > 1e-9 {
			t.Errorf("%d-of-%d: product %.12f vs bayes %.12f (diff %.2g)",
				q.Quorum, q.Instances, flatRes.Availability, bayesRes.Availability, diff)
		}
	}
}

// TestClusterBayesBeyondCTMC demonstrates the acceptance criterion: the
// flat CTMC refuses a 100-instance cluster (3^100 states, capped by
// hier.MaxProductStates) while the BN backend solves it exactly and
// matches the binomial closed form.
func TestClusterBayesBeyondCTMC(t *testing.T) {
	p := DefaultParams()
	q := ClusterQuorum{Instances: 100, Quorum: 90}
	if _, err := ClusterProduct(p, q); !errors.Is(err, hier.ErrBadComponent) {
		t.Fatalf("ClusterProduct err = %v, want ErrBadComponent (state cap)", err)
	}
	net, err := ClusterBayes(p, q)
	if err != nil {
		t.Fatalf("ClusterBayes: %v", err)
	}
	res, err := net.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	inst, err := instanceStructure(p)
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	ir, err := solvePooled(inst)
	if err != nil {
		t.Fatalf("instance solve: %v", err)
	}
	want := 0.0
	pUp := ir.Availability
	for j := q.Quorum; j <= q.Instances; j++ {
		c := 1.0
		for i := 0; i < j; i++ {
			c = c * float64(q.Instances-i) / float64(i+1)
		}
		want += c * math.Pow(pUp, float64(j)) * math.Pow(1-pUp, float64(q.Instances-j))
	}
	if math.Abs(res.Availability-want) > 1e-9 {
		t.Fatalf("availability %.12f, want binomial %.12f", res.Availability, want)
	}
	if res.Size < 100 {
		t.Fatalf("Size = %d, want ≥ 100 BN variables", res.Size)
	}
}

// TestReplicationSweepMonotone checks the replication-factor sweep the
// CTMC backend cannot solve: fixing a 95%-quorum, availability must not
// decrease as instances are added in the sampled range.
func TestReplicationSweepMonotone(t *testing.T) {
	p := DefaultParams()
	prev := -1.0
	for _, n := range []int{20, 40, 60, 80, 100} {
		k := n * 9 / 10
		net, err := ClusterBayes(p, ClusterQuorum{Instances: n, Quorum: k})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res, err := net.Solve(context.Background())
		if err != nil {
			t.Fatalf("n=%d solve: %v", n, err)
		}
		if res.Availability < prev {
			t.Fatalf("n=%d: availability %.12f dropped below previous %.12f", n, res.Availability, prev)
		}
		prev = res.Availability
	}
}

func TestSolveBackendValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := SolveBackend(context.Background(), Config1, p, backend.Kind("mystery")); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown backend err = %v, want ErrBadConfig", err)
	}
	if _, err := BayesModel(Config{ASInstances: 0}, p); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad config err = %v, want ErrBadConfig", err)
	}
	for _, q := range []ClusterQuorum{{0, 1}, {3, 0}, {3, 4}} {
		if err := q.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%+v: err = %v, want ErrBadConfig", q, err)
		}
	}
}

// TestSolveBackendCTMCSize: the CTMC backend's Size is the state count of
// the chains solved — the AS submodel, the pair model when there is
// one, and the top model, which has no HADB_Fail state without pairs
// and a CC_Fail state only when β > 0.
func TestSolveBackendCTMCSize(t *testing.T) {
	t.Parallel()
	beta := DefaultParams()
	beta.Beta = 0.1
	for _, c := range []struct {
		cfg  Config
		p    Params
		want int
	}{
		{Table3Configs()[0], DefaultParams(), 3 + 2},
		{Config{ASInstances: 3}, DefaultParams(), 11 + 2},
		{Config1, DefaultParams(), 5 + 6 + 3},
		{Config1, beta, 5 + 6 + 4},
	} {
		res, err := SolveBackend(context.Background(), c.cfg, c.p, backend.KindCTMC)
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != c.want {
			t.Errorf("%v β=%v: Size %d, want %d", c.cfg, c.p.Beta, res.Size, c.want)
		}
	}
}
