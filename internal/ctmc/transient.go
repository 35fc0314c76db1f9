package ctmc

import (
	"fmt"
	"math"
)

// TransientOptions configures Transient.
type TransientOptions struct {
	// Epsilon bounds the truncation error of the uniformization series.
	// Defaults to 1e-12.
	Epsilon float64
	// MaxTerms caps the series length as a safety valve. Defaults to 10^7.
	MaxTerms int
}

// Transient computes the state-probability vector at time t given the
// initial distribution p0, using Jensen's uniformization method:
//
//	p(t) = Σ_k Poisson(Λt; k) · p0·P^k,  P = I + Q/Λ.
//
// The truncation point is chosen so the neglected Poisson tail mass is
// below Epsilon. Works for any finite CTMC (absorbing states allowed).
func (m *Model) Transient(p0 []float64, t float64, opts TransientOptions) ([]float64, error) {
	n := m.NumStates()
	if len(p0) != n {
		return nil, fmt.Errorf("initial vector has length %d, want %d: %w", len(p0), n, ErrBadModel)
	}
	if t < 0 {
		return nil, fmt.Errorf("negative time %g: %w", t, ErrBadModel)
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 1e-12
	}
	maxTerms := opts.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 10_000_000
	}
	out := make([]float64, n)
	if t == 0 {
		copy(out, p0)
		return out, nil
	}
	// Uniformization rate.
	var lambda float64
	for s := 0; s < n; s++ {
		if r := m.ExitRate(State(s)); r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		copy(out, p0)
		return out, nil
	}
	lambda *= 1.02
	q, err := m.SparseGenerator()
	if err != nil {
		return nil, err
	}
	lt := lambda * t
	// Right truncation point: beyond Λt + c·√Λt the Poisson tail mass is
	// below eps (c = 10 covers eps ≈ 1e-20); the accumulated-mass check
	// alone is unreliable at large Λt, where summation round-off exceeds
	// any tight eps.
	truncation := int(lt + 10*math.Sqrt(lt+1) + 40)
	if truncation > maxTerms {
		truncation = maxTerms
	}
	// Poisson weights in log space to avoid overflow for large Λt.
	// w_k = e^{-Λt} (Λt)^k / k!
	cur := make([]float64, n)
	copy(cur, p0)
	next := make([]float64, n)
	scratch := make([]float64, n)
	logW := -lt // log w_0
	var accumulated float64
	for k := 0; k <= truncation; k++ {
		w := math.Exp(logW)
		if w > 0 {
			for i := 0; i < n; i++ {
				out[i] += w * cur[i]
			}
			accumulated += w
		}
		if accumulated >= 1-eps && float64(k) > lt {
			break
		}
		// cur ← cur·P = cur + (cur·Q)/Λ
		cq, err := q.VecMul(cur, scratch)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v := cur[i] + cq[i]/lambda
			if v < 0 {
				v = 0
			}
			next[i] = v
		}
		cur, next = next, cur
		logW += math.Log(lt) - math.Log(float64(k+1))
	}
	// The truncated tail mass (≤ eps) is redistributed by normalizing.
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out, nil
}

// IntervalAvailability returns the expected time-average reward over
// [0, t] (for 0/1 rewards, the expected interval availability) starting
// from distribution p0. It uses the single-pass uniformization identity
//
//	(1/t)∫₀ᵗ p(s)·r ds = (1/(Λt)) Σ_k P(N_Λt > k) · (p0·Pᵏ)·r
//
// where P(N_Λt > k) is the Poisson tail, so the cost is one power-series
// sweep (O(Λt) matrix-vector products) regardless of the horizon.
func (m *Model) IntervalAvailability(p0 []float64, t float64, reward []float64) (float64, error) {
	n := m.NumStates()
	if len(p0) != n {
		return 0, fmt.Errorf("initial vector has length %d, want %d: %w", len(p0), n, ErrBadModel)
	}
	if t < 0 {
		return 0, fmt.Errorf("negative time %g: %w", t, ErrBadModel)
	}
	if t == 0 {
		return instantReward(p0, reward), nil
	}
	var lambda float64
	for s := 0; s < n; s++ {
		if r := m.ExitRate(State(s)); r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		return instantReward(p0, reward), nil
	}
	lambda *= 1.02
	q, err := m.SparseGenerator()
	if err != nil {
		return 0, err
	}
	lt := lambda * t
	logLT := math.Log(lt)
	truncation := int(lt + 10*math.Sqrt(lt+1) + 40)
	cur := make([]float64, n)
	copy(cur, p0)
	next := make([]float64, n)
	scratch := make([]float64, n)
	// Both sums run over ~Λt terms of order one, so plain float64 sums
	// lose ~Λt ulps — at a 20-year horizon as much as the transient
	// excess being measured. They are compensated, and each Poisson
	// weight is computed directly rather than by a recurrence.
	var cdf neumaier
	var integral neumaier // Σ tail_k · (v_k·r), in units of 1/Λ
	for k := 0; k <= truncation; k++ {
		lgk, _ := math.Lgamma(float64(k + 1))
		cdf.add(math.Exp(float64(k)*logLT - lt - lgk))
		tail := (1 - cdf.sum) - cdf.c
		if tail < 0 {
			tail = 0
		}
		integral.add(tail * instantReward(cur, reward))
		if tail == 0 && float64(k) > lt {
			break
		}
		cq, err := q.VecMul(cur, scratch)
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			v := cur[i] + cq[i]/lambda
			if v < 0 {
				v = 0
			}
			next[i] = v
		}
		cur, next = next, cur
	}
	return integral.value() / lt, nil
}

// neumaier is a compensated (Kahan–Babuška–Neumaier) running sum: sum
// plus the accumulated rounding error c.
type neumaier struct{ sum, c float64 }

func (s *neumaier) add(x float64) {
	t := s.sum + x
	if math.Abs(s.sum) >= math.Abs(x) {
		s.c += (s.sum - t) + x
	} else {
		s.c += (x - t) + s.sum
	}
	s.sum = t
}

func (s *neumaier) value() float64 { return s.sum + s.c }

func instantReward(p, reward []float64) float64 {
	var s float64
	for i := range p {
		if i < len(reward) {
			s += p[i] * reward[i]
		}
	}
	return s
}
