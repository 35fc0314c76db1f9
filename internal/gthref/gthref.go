// Package gthref solves a continuous-time Markov chain's stationary
// distribution in arbitrary-precision arithmetic: an oracle, independent of
// the float64 engine in package ctmc, that tests compare its answers with
// entry by entry.
package gthref

import "math/big"

// Transition is one rated edge From → To between state indices.
type Transition struct {
	From, To int
	Rate     float64
}

// Stationary returns the stationary distribution of the irreducible
// n-state chain with the given transitions (parallel edges add) by GTH
// state reduction in prec-bit arithmetic. It eliminates states last to
// first, skipping zero rates, so it costs about as many operations (each
// ~100× dearer at 256 bits) as one float64 dense solve. The reduction
// never subtracts, so every entry, however tiny, is accurate to about
// prec bits relative.
func Stationary(n int, transitions []Transition, prec uint) []*big.Float {
	q := make([]big.Float, n*n)
	for i := range q {
		q[i].SetPrec(prec)
	}
	t := new(big.Float).SetPrec(prec)
	for _, tr := range transitions {
		e := &q[tr.From*n+tr.To]
		e.Add(e, t.SetFloat64(tr.Rate))
	}
	f := new(big.Float).SetPrec(prec)
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
