package jsas

import (
	"math/big"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/reward"
)

// referencePrec is the mantissa width of the reference solves: 256 bits
// leave the reference's own round-off far below the 1e-12 tolerance even
// after the ~2e6 operations of the 14-instance (561-state) reduction.
const referencePrec = 256

// gthReference returns m's stationary distribution by GTH state reduction
// in prec-bit arithmetic: an independent, entrywise-accurate oracle for
// the float64 solver. It eliminates states last to first exactly as the
// dense solver does, skipping zero rates, so it costs about as many
// operations (each ~100× dearer) as one float64 solve.
func gthReference(m *ctmc.Model, prec uint) []*big.Float {
	n := m.NumStates()
	q := make([]big.Float, n*n)
	for i := range q {
		q[i].SetPrec(prec)
	}
	for _, tr := range m.Transitions() {
		q[int(tr.From)*n+int(tr.To)].SetFloat64(tr.Rate)
	}
	f := new(big.Float).SetPrec(prec)
	t := new(big.Float).SetPrec(prec)
	for k := n - 1; k > 0; k-- {
		sum := &q[k*n+k] // holds s_k for the back-substitution
		sum.SetInt64(0)
		var cols []int
		for j := 0; j < k; j++ {
			if q[k*n+j].Sign() != 0 {
				cols = append(cols, j)
				sum.Add(sum, &q[k*n+j])
			}
		}
		for i := 0; i < k; i++ {
			if q[i*n+k].Sign() == 0 {
				continue
			}
			f.Quo(&q[i*n+k], sum)
			for _, j := range cols {
				t.Mul(f, &q[k*n+j])
				q[i*n+j].Add(&q[i*n+j], t)
			}
		}
	}
	pi := make([]*big.Float, n)
	total := new(big.Float).SetPrec(prec)
	for k := range pi {
		pi[k] = new(big.Float).SetPrec(prec)
		if k == 0 {
			pi[k].SetInt64(1)
		}
		for i := 0; i < k; i++ {
			t.Mul(pi[i], &q[i*n+k])
			pi[k].Add(pi[k], t)
		}
		if k > 0 {
			pi[k].Quo(pi[k], &q[k*n+k])
		}
		total.Add(total, pi[k])
	}
	for _, p := range pi {
		p.Quo(p, total)
	}
	return pi
}

// referenceMeasures returns the reference down-set probability and
// down-set entry frequency of s.
func referenceMeasures(s *reward.Structure) (pDown, freq *big.Float) {
	m := s.Model()
	pi := gthReference(m, referencePrec)
	down := s.DownStates()
	pDown = new(big.Float).SetPrec(referencePrec)
	for st := range down {
		pDown.Add(pDown, pi[st])
	}
	freq = new(big.Float).SetPrec(referencePrec)
	t := new(big.Float).SetPrec(referencePrec)
	for _, tr := range m.Transitions() {
		if !down[tr.From] && down[tr.To] {
			t.SetFloat64(tr.Rate)
			freq.Add(freq, t.Mul(t, pi[tr.From]))
		}
	}
	return pDown, freq
}

// checkAgainstReference compares a solved chain's down-set probability
// and failure frequency with the reference, to tol relative.
func checkAgainstReference(t *testing.T, what string, s *reward.Structure, res *reward.Result, tol float64) {
	t.Helper()
	refDown, refFreq := referenceMeasures(s)
	var pDown float64
	for st := range s.DownStates() {
		pDown += res.Pi[st]
	}
	for _, c := range []struct {
		name string
		got  float64
		ref  *big.Float
	}{
		{"P(down)", pDown, refDown},
		{"entry frequency", res.FailureFrequency, refFreq},
	} {
		ref, _ := c.ref.Float64()
		diff := new(big.Float).Sub(new(big.Float).SetFloat64(c.got), c.ref)
		rel, _ := diff.Quo(diff, c.ref).Float64()
		if rel > tol || rel < -tol {
			t.Errorf("%s: %s = %.17g, reference %.17g (relative error %.3g > %g)", what, c.name, c.got, ref, rel, tol)
		}
	}
}

// TestSteadyStateMatchesReference checks every chain Solve builds — the
// AS cluster at 1…14 instances, the HADB pair and the top model, with and
// without the common-cause mode — against a 256-bit GTH reference. Each
// down-set probability and entry frequency must agree to 1e-12 relative,
// however tiny: the AS cluster's All_Down probability falls to ~1e-20 at
// 12 instances, where only a relatively accurate solve gives the
// submodel's downtime and equivalent rates a meaningful digit. A residual
// check (πQ ≈ 0, Σπ = 1) bounds absolute error only and cannot see this.
func TestSteadyStateMatchesReference(t *testing.T) {
	t.Parallel()
	const tol = 1e-12
	for n := 1; n <= 14; n++ {
		cfg := Config{ASInstances: n, HADBPairs: n, HADBSpares: 2}
		as, err := BuildAppServer(DefaultParams(), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, beta := range []float64{0, 0.1} {
			p := DefaultParams()
			p.Beta = beta
			res, err := Solve(cfg, p)
			if err != nil {
				t.Fatalf("Solve(%v, β=%g): %v", cfg, beta, err)
			}
			if beta == 0 {
				checkAgainstReference(t, cfg.String()+" AS", as, res.ASSubmodel, tol)
			}
			if n == 1 && beta == 0 {
				hadb, err := BuildHADBPair(p)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, "HADB pair", hadb, res.HADBSubmodel, tol)
			}
			b := ctmc.NewBuilder()
			emitTopModel(b, cfg, &p, []float64{
				res.ASSubmodel.LambdaEq, res.ASSubmodel.MuEq,
				res.HADBSubmodel.LambdaEq, res.HADBSubmodel.MuEq,
			})
			m, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			top, err := topRewards(m)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, cfg.String()+" top", top, res.System, tol)
		}
	}
}
