package jsas

import (
	"fmt"
	"math"

	"repro/internal/ctmc"
	"repro/internal/reward"
)

// Application Server model state names. For the 2-instance model these
// correspond one-to-one to Figure 4 of the paper; for other instance
// counts the phase states are named systematically (see phaseName).
const (
	ASStateAllWork = "All_Work"
	ASStateAllDown = "All_Down"
)

// Figure 4 state names for the 2-instance model.
const (
	as2Recovery  = "Recovery"
	as2DownShort = "1DownShort"
	as2DownLong  = "1DownLong"
)

// BuildAppServer constructs the Application Server cluster model for n
// instances, generalizing Figure 4 of the paper:
//
//   - Each failure sends one instance through a session Recovery phase
//     (Trecovery), then with probability FSS = La_as/La into a short
//     restart (Tstart_short) or with 1−FSS into a long restart
//     (Tstart_long).
//   - While d instances are down, each surviving instance fails at the
//     workload-accelerated rate λ·Acc^d (paper §4: La_i = La_0·2^i); a
//     failure that downs the last instance enters the All_Down failure
//     state directly.
//   - All_Down is restored by operator intervention at rate 1/Tstart_all.
//
// For n = 2 this reduces exactly to Figure 4 (states All_Work, Recovery,
// 1DownShort, 1DownLong, 2_Down — here named All_Down).
//
// For n = 1 there is no failover: the instance alternates between up and
// restarting (short for AS failures, long for HW/OS), matching the
// 1-instance row of Table 3.
func BuildAppServer(p Params, n int) (*reward.Structure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("instance count %d, want ≥ 1: %w", n, ErrBadConfig)
	}
	b := ctmc.NewBuilder()
	emitAppServer(b, p, n, true)
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("AS %d-instance model: %w", n, err)
	}
	s, err := asRewards(m, n)
	if err != nil {
		return nil, fmt.Errorf("AS %d-instance model: %w", n, err)
	}
	return s, nil
}

// asRewards marks the n-instance AS chain's failure states: All_Down, or
// for a single instance both of its restart states.
func asRewards(m *ctmc.Model, n int) (*reward.Structure, error) {
	if n == 1 {
		return reward.Binary(m, as2DownShort, as2DownLong)
	}
	return reward.Binary(m, ASStateAllDown)
}

// emitAppServer writes the n-instance AS chain into sk. named says
// whether to name the states; a re-rating sink matches them by position,
// and formatting the phase names is most of the cost of building a wide
// cluster.
func emitAppServer(sk ctmc.Sink, p Params, n int, named bool) {
	if n == 1 {
		emitAS1(sk, p)
		return
	}
	emitASCluster(sk, p, n, named)
}

// emitAS1 is the no-redundancy single instance chain (Table 3 row 1).
func emitAS1(sk ctmc.Sink, p Params) {
	laAS := p.ASFailuresPerYear / hoursPerYear
	laLong := (p.ASOSFailuresPerYear + p.ASHWFailuresPerYear) / hoursPerYear
	up := sk.State(ASStateAllWork)
	short := sk.State(as2DownShort)
	long := sk.State(as2DownLong)
	sk.Transition(up, short, laAS)
	sk.Transition(up, long, laLong)
	sk.Transition(short, up, 1/p.ASRestartShort.Hours())
	sk.Transition(long, up, 1/p.ASRestartLong.Hours())
}

// emitASCluster is the phase-tracking n ≥ 2 chain. Its states are the
// phases (r, s, l) with r+s+l ≤ n−1 in lexicographic order — r instances
// in session recovery, s in short restart, l in long restart — followed
// by All_Down (d = n).
func emitASCluster(sk ctmc.Sink, p Params, n int, named bool) {
	la := p.asInstanceFailurePerHour()
	fss := p.fractionShortStart()
	trec := p.SessionRecovery.Hours()
	tss := p.ASRestartShort.Hours()
	tsl := p.ASRestartLong.Hours()
	// accPow[d] = Acc^d, one math.Pow per level rather than per state;
	// the array keeps clusters of up to 32 instances allocation-free.
	var accBuf [32]float64
	accPow := accBuf[:]
	if n > len(accBuf) {
		accPow = make([]float64, n)
	}
	for d := 0; d < n; d++ {
		accPow[d] = math.Pow(p.Acceleration, float64(d))
	}

	m := n - 1
	for r := 0; r <= m; r++ {
		for s := 0; s+r <= m; s++ {
			for l := 0; l+s+r <= m; l++ {
				name := ""
				if named {
					name = phaseName(n, r, s, l)
				}
				sk.State(name)
			}
		}
	}
	allDown := sk.State(ASStateAllDown)

	at := func(r, s, l int) ctmc.State { return ctmc.State(phaseIndex(m, r, s, l)) }
	for r := 0; r <= m; r++ {
		for s := 0; s+r <= m; s++ {
			for l := 0; l+s+r <= m; l++ {
				st := at(r, s, l)
				d := r + s + l
				// Failure of one of the n−d surviving instances at
				// accelerated per-instance rate λ·Acc^d.
				failRate := float64(n-d) * la * accPow[d]
				if d+1 == n {
					sk.Transition(st, allDown, failRate)
				} else {
					sk.Transition(st, at(r+1, s, l), failRate)
				}
				// Session-recovery phase completions split short/long.
				if r > 0 {
					rate := float64(r) / trec
					if fss > 0 {
						sk.Transition(st, at(r-1, s+1, l), rate*fss)
					}
					if fss < 1 {
						sk.Transition(st, at(r-1, s, l+1), rate*(1-fss))
					}
				}
				// Restart completions.
				if s > 0 {
					sk.Transition(st, at(r, s-1, l), float64(s)/tss)
				}
				if l > 0 {
					sk.Transition(st, at(r, s, l-1), float64(l)/tsl)
				}
			}
		}
	}
	// Operator restore from All_Down back to full service.
	sk.Transition(allDown, at(0, 0, 0), 1/p.ASRestoreAll.Hours())
}

// phaseName names the degraded state of an n-instance cluster with r
// instances in session-recovery phase, s in short restart, and l in long
// restart: the paper's Figure 4 names for n = 2, systematic R‹r›S‹s›L‹l›
// names otherwise.
func phaseName(n, r, s, l int) string {
	if r+s+l == 0 {
		return ASStateAllWork
	}
	if n == 2 {
		switch {
		case r == 1:
			return as2Recovery
		case s == 1:
			return as2DownShort
		default:
			return as2DownLong
		}
	}
	return fmt.Sprintf("R%dS%dL%d", r, s, l)
}

// phaseIndex is the position of phase (r, s, l) in emitASCluster's
// lexicographic enumeration of the phases with r+s+l ≤ m: the phases
// with a smaller r, then those with this r and a smaller s, then l.
func phaseIndex(m, r, s, l int) int {
	// Phases with first coordinate r' number (m−r'+1)(m−r'+2)/2; their
	// sum over r' < r is tet(m+1) − tet(m−r+1).
	tet := func(k int) int { return k * (k + 1) * (k + 2) / 6 }
	k := m - r
	return tet(m+1) - tet(k+1) + s*(k+1) - s*(s-1)/2 + l
}
