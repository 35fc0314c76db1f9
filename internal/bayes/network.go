// Package bayes implements exact Bayesian-network availability inference
// over redundancy structures: fault-tree style composition (AND/OR,
// k-out-of-n, noisy-OR with leak) of basic events with known steady-state
// availabilities, solved by variable elimination.
//
// It is the engine's second solver backend (backend.KindBayes). The CTMC
// hierarchy solves each leaf submodel exactly but explodes
// combinatorially when replicated services are cross-producted
// (hier.Product caps at 1e6 states — about ten 3-state instances).
// The BN backend trades the CTMC's transient structure for scale: gates
// are decomposed into chains of small conditional-probability tables
// (k-out-of-n via a saturating counter, noisy-OR via a transmission
// accumulator), so a 100-instance k-out-of-n cluster costs O(n·k) table
// entries instead of 3^100 states, and exact inference stays cheap.
package bayes

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Common errors reported by the package.
var (
	// ErrBadNetwork is reported by Build for structurally invalid networks
	// (bad probabilities, unknown child handles, duplicate names).
	ErrBadNetwork = errors.New("bayes: invalid network")
	// ErrIntractable is reported by Solve when variable elimination would
	// materialize a factor above the entry cap — the network's treewidth
	// is too large for exact inference.
	ErrIntractable = errors.New("bayes: inference intractable")
)

// maxFactorEntries caps the size of any intermediate factor materialized
// during variable elimination (4M float64 entries ≈ 32 MiB). Redundancy
// structures built through this package's gates have tiny treewidth and
// never approach it; the cap turns a pathological hand-built topology
// into ErrIntractable instead of an OOM.
const maxFactorEntries = 1 << 22

// Node is a handle to a variable created by a Builder. The zero handle is
// the first node created; handles from one Builder are meaningless in
// another.
type Node int

// variable is a discrete network variable. For basic events and gates the
// cardinality is 2 with value 1 = up, value 0 = down; k-out-of-n counter
// auxiliaries have cardinality up to k+1.
type variable struct {
	name string
	card int
}

// Builder accumulates basic events and gates and produces a validated
// Network. Children must be created before the gates that reference them,
// so the DAG is acyclic by construction. Errors are collected and
// reported by Build, following the ctmc.Builder idiom.
type Builder struct {
	name    string
	vars    []variable
	factors []*factor
	byName  map[string]Node
	errs    []error
}

// NewBuilder returns an empty network builder for a model with the given
// display name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]Node)}
}

// addVar registers a variable, enforcing unique names.
func (b *Builder) addVar(name string, card int) Node {
	if _, ok := b.byName[name]; ok {
		b.errs = append(b.errs, fmt.Errorf("duplicate node name %q: %w", name, ErrBadNetwork))
	}
	n := Node(len(b.vars))
	b.vars = append(b.vars, variable{name: name, card: card})
	b.byName[name] = n
	return n
}

// card returns the cardinalities indexed by variable id.
func (b *Builder) card() []int {
	card := make([]int, len(b.vars))
	for i, v := range b.vars {
		card[i] = v.card
	}
	return card
}

// checkChildren validates child handles and that at least one is given.
func (b *Builder) checkChildren(gate string, children []Node) bool {
	if len(children) == 0 {
		b.errs = append(b.errs, fmt.Errorf("gate %q has no children: %w", gate, ErrBadNetwork))
		return false
	}
	for _, c := range children {
		if int(c) < 0 || int(c) >= len(b.vars) {
			b.errs = append(b.errs, fmt.Errorf("gate %q references unknown child %d: %w", gate, c, ErrBadNetwork))
			return false
		}
		if b.vars[c].card != 2 {
			b.errs = append(b.errs, fmt.Errorf("gate %q child %q is not a binary event: %w", gate, b.vars[c].name, ErrBadNetwork))
			return false
		}
	}
	return true
}

// Basic adds a basic event with steady-state availability pUp — typically
// the availability of a leaf submodel solved exactly by the CTMC engine,
// which is how the hierarchy's lower layers feed the BN composition.
func (b *Builder) Basic(name string, pUp float64) Node {
	if !(pUp >= 0 && pUp <= 1) || math.IsNaN(pUp) { // NaN fails both comparisons
		b.errs = append(b.errs, fmt.Errorf("basic event %q availability %g outside [0,1]: %w", name, pUp, ErrBadNetwork))
		pUp = 0
	}
	n := b.addVar(name, 2)
	f := newFactor([]int{int(n)}, b.card())
	f.values[0] = 1 - pUp // down
	f.values[1] = pUp     // up
	b.factors = append(b.factors, f)
	return n
}

// And adds a gate that is up iff every child is up (series structure).
func (b *Builder) And(name string, children ...Node) Node {
	return b.KOfN(name, len(children), children...)
}

// Or adds a gate that is up iff at least one child is up (parallel
// structure).
func (b *Builder) Or(name string, children ...Node) Node {
	return b.KOfN(name, 1, children...)
}

// KOfN adds a gate that is up iff at least k of its n children are up —
// the quorum structure of replicated services.
//
// An explicit CPT over n parents would hold 2^(n+1) entries; instead the
// gate is decomposed into a chain of saturating counters
// s_i = min(s_{i-1} + up(x_i), k) with cardinality ≤ k+1, so the table
// cost is O(n·k²) and a 100-instance quorum stays trivially tractable.
func (b *Builder) KOfN(name string, k int, children ...Node) Node {
	if !b.checkChildren(name, children) {
		return b.addVar(name, 2)
	}
	n := len(children)
	if k < 1 || k > n {
		b.errs = append(b.errs, fmt.Errorf("gate %q requires %d of %d children: %w", name, k, n, ErrBadNetwork))
		return b.addVar(name, 2)
	}

	// Counter chain: s_i counts min(#up among x_1..x_i, k).
	prev := Node(-1)
	for i := 1; i <= n; i++ {
		cap := i
		if cap > k {
			cap = k
		}
		s := b.addVar(fmt.Sprintf("%s#s%d", name, i), cap+1)
		card := b.card()
		var f *factor
		if prev < 0 {
			// s_1 = up(x_1), deterministically.
			f = newFactor([]int{int(s), int(children[0])}, card)
			assign := make([]int, len(card))
			for x := 0; x < 2; x++ {
				assign[children[0]] = x
				assign[s] = x
				f.set(assign, card, 1)
			}
		} else {
			f = newFactor([]int{int(s), int(prev), int(children[i-1])}, card)
			assign := make([]int, len(card))
			for sp := 0; sp < card[prev]; sp++ {
				for x := 0; x < 2; x++ {
					v := sp + x
					if v > k {
						v = k
					}
					assign[prev] = sp
					assign[children[i-1]] = x
					assign[s] = v
					f.set(assign, card, 1)
				}
			}
		}
		b.factors = append(b.factors, f)
		prev = s
	}

	// Gate is up iff the final counter saturated at k.
	g := b.addVar(name, 2)
	card := b.card()
	f := newFactor([]int{int(g), int(prev)}, card)
	assign := make([]int, len(card))
	for sv := 0; sv < card[prev]; sv++ {
		up := 0
		if sv == k {
			up = 1
		}
		assign[prev] = sv
		assign[g] = up
		f.set(assign, card, 1)
	}
	b.factors = append(b.factors, f)
	return g
}

// NoisyOr adds a noisy-OR failure gate: each failed child independently
// transmits failure to the gate with probability weights[i], and the gate
// additionally fails spontaneously with probability leak. The gate is up
// iff no failure is transmitted and no leak fires, so
//
//	P(up | children) = (1 − leak) · ∏_{i: child i down} (1 − weights[i]).
//
// With all weights 1 and leak 0 this degenerates to And. Like KOfN, the
// CPT is decomposed into a chain — binary accumulators b_i = "no failure
// transmitted by x_1..x_i" — keeping the cost linear in the child count.
func (b *Builder) NoisyOr(name string, leak float64, children []Node, weights []float64) Node {
	if !b.checkChildren(name, children) {
		return b.addVar(name, 2)
	}
	if len(weights) != len(children) {
		b.errs = append(b.errs, fmt.Errorf("gate %q has %d children but %d weights: %w", name, len(children), len(weights), ErrBadNetwork))
		return b.addVar(name, 2)
	}
	bad := !(leak >= 0 && leak <= 1) || math.IsNaN(leak)
	for _, w := range weights {
		if !(w >= 0 && w <= 1) || math.IsNaN(w) {
			bad = true
		}
	}
	if bad {
		b.errs = append(b.errs, fmt.Errorf("gate %q leak/weights outside [0,1]: %w", name, ErrBadNetwork))
		return b.addVar(name, 2)
	}

	// Accumulator chain: b_i = 1 iff none of x_1..x_i transmitted failure.
	prev := Node(-1)
	for i, c := range children {
		a := b.addVar(fmt.Sprintf("%s#t%d", name, i+1), 2)
		card := b.card()
		var f *factor
		assign := make([]int, len(card))
		if prev < 0 {
			f = newFactor([]int{int(a), int(c)}, card)
			// x up: never transmits. x down: transmits w.p. weights[0].
			assign[c], assign[a] = 1, 1
			f.set(assign, card, 1)
			assign[c], assign[a] = 0, 1
			f.set(assign, card, 1-weights[0])
			assign[c], assign[a] = 0, 0
			f.set(assign, card, weights[0])
		} else {
			f = newFactor([]int{int(a), int(prev), int(c)}, card)
			// Once a failure is transmitted it stays transmitted.
			assign[prev] = 0
			for x := 0; x < 2; x++ {
				assign[c], assign[a] = x, 0
				f.set(assign, card, 1)
			}
			assign[prev] = 1
			assign[c], assign[a] = 1, 1
			f.set(assign, card, 1)
			assign[c], assign[a] = 0, 1
			f.set(assign, card, 1-weights[i])
			assign[c], assign[a] = 0, 0
			f.set(assign, card, weights[i])
		}
		b.factors = append(b.factors, f)
		prev = a
	}

	g := b.addVar(name, 2)
	card := b.card()
	f := newFactor([]int{int(g), int(prev)}, card)
	assign := make([]int, len(card))
	assign[prev], assign[g] = 1, 1
	f.set(assign, card, 1-leak)
	assign[prev], assign[g] = 1, 0
	f.set(assign, card, leak)
	assign[prev], assign[g] = 0, 0
	f.set(assign, card, 1)
	b.factors = append(b.factors, f)
	return g
}

// Build validates the network and returns it with root as the query
// variable (the system-up event).
func (b *Builder) Build(root Node) (*Network, error) {
	if int(root) < 0 || int(root) >= len(b.vars) {
		b.errs = append(b.errs, fmt.Errorf("root handle %d out of range: %w", root, ErrBadNetwork))
	} else if b.vars[root].card != 2 {
		b.errs = append(b.errs, fmt.Errorf("root %q is not a binary event: %w", b.vars[root].name, ErrBadNetwork))
	}
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	return &Network{
		name:    b.name,
		vars:    append([]variable(nil), b.vars...),
		factors: append([]*factor(nil), b.factors...),
		card:    b.card(),
		root:    int(root),
	}, nil
}

// Network is an immutable Bayesian network over a redundancy structure.
// It implements backend.AvailabilityModel; Solve runs exact variable
// elimination and is safe for concurrent use.
type Network struct {
	name    string
	vars    []variable
	factors []*factor
	card    []int
	root    int
}

// Name returns the model's display name.
func (n *Network) Name() string { return n.name }

// Kind identifies the solving backend.
func (n *Network) Kind() backend.Kind { return backend.KindBayes }

// Variables returns the total variable count after gate decomposition —
// the BN analogue of the CTMC state count.
func (n *Network) Variables() int { return len(n.vars) }

// Inference metrics, reported to the default obs registry.
var (
	obsSolveSeconds = obs.H("bayes_solve_seconds", "variable-elimination solve wall time", obs.DurationBuckets)
	obsSolvesTotal  = obs.C("bayes_solves_total", "completed variable-elimination solves")
	obsSolveErrors  = obs.C("bayes_solve_errors_total", "variable-elimination solves that returned an error")
	obsLastVars     = obs.G("bayes_last_solve_variables", "variable count (after gate decomposition) of the most recent solve")
	obsLastWidth    = obs.G("bayes_last_solve_max_factor_entries", "largest intermediate factor of the most recent solve (treewidth proxy)")
	obsCancels      = obs.C("solver_cancellations_total",
		"engine runs aborted by context cancellation", `layer="bayes"`)
)

// Solve computes P(root = up) by variable elimination with a
// deterministic min-degree ordering and returns the backend-independent
// availability result. A span in ctx gets a bayes.solve child; an
// untraced ctx records nothing.
func (n *Network) Solve(ctx context.Context) (*backend.Result, error) {
	timer := obs.StartTimer(obsSolveSeconds)
	span := trace.Child(ctx, "bayes.solve", 3)
	pUp, width, err := n.solve(ctx)
	timer.Stop()
	if span != nil {
		span.Attr(
			trace.Int("variables", int64(len(n.vars))),
			trace.Int("max_factor_entries", int64(width)),
			trace.Bool("error", err != nil))
		span.End()
	}
	obsLastVars.Set(float64(len(n.vars)))
	obsLastWidth.Set(float64(width))
	if err != nil {
		obsSolveErrors.Inc()
		return nil, err
	}
	obsSolvesTotal.Inc()
	return &backend.Result{
		Backend:               backend.KindBayes,
		Name:                  n.name,
		Availability:          pUp,
		YearlyDowntimeMinutes: (1 - pUp) * backend.MinutesPerYear,
		Size:                  len(n.vars),
	}, nil
}

// Availability is a convenience wrapper returning only P(root = up).
func (n *Network) Availability(ctx context.Context) (float64, error) {
	res, err := n.Solve(ctx)
	if err != nil {
		return 0, err
	}
	return res.Availability, nil
}

// solve runs the elimination and returns P(up) plus the largest
// intermediate factor size seen (a treewidth proxy for diagnostics).
func (n *Network) solve(ctx context.Context) (float64, int, error) {
	if len(n.vars) == 0 {
		return 0, 0, fmt.Errorf("empty network: %w", ErrBadNetwork)
	}
	factors := append([]*factor(nil), n.factors...)
	order := n.eliminationOrder()
	maxEntries := 0
	for _, v := range order {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				obsCancels.Inc()
				return 0, maxEntries, fmt.Errorf("bayes solve canceled: %w", err)
			}
		}
		// Gather the factors mentioning v, multiply, marginalize v out.
		var joint *factor
		rest := factors[:0]
		size := 1
		for _, f := range factors {
			if !f.contains(v) {
				rest = append(rest, f)
				continue
			}
			if joint == nil {
				joint = f
				for _, fv := range f.vars {
					size *= n.card[fv]
				}
				continue
			}
			for _, fv := range f.vars {
				if !joint.contains(fv) {
					size *= n.card[fv]
				}
			}
			if size > maxFactorEntries {
				return 0, maxEntries, fmt.Errorf(
					"eliminating %q needs a %d-entry factor (cap %d): %w",
					n.vars[v].name, size, maxFactorEntries, ErrIntractable)
			}
			joint = product(joint, f, n.card)
		}
		factors = rest
		if joint == nil {
			continue // variable already marginalized away
		}
		if size > maxEntries {
			maxEntries = size
		}
		factors = append(factors, joint.sumOut(v, n.card))
	}

	// Multiply what remains — factors over the root only (and scalars).
	result := newFactor(nil, n.card)
	result.values[0] = 1
	for _, f := range factors {
		result = product(result, f, n.card)
	}
	var pDown, pUp float64
	switch len(result.vars) {
	case 1:
		pDown, pUp = result.values[0], result.values[1]
	default:
		return 0, maxEntries, fmt.Errorf("elimination left %d variables: %w", len(result.vars), ErrBadNetwork)
	}
	total := pDown + pUp
	if !(total > 0) || math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, maxEntries, fmt.Errorf("degenerate network: total probability %g: %w", total, ErrBadNetwork)
	}
	return pUp / total, maxEntries, nil
}

// eliminationOrder returns every non-root variable in greedy min-degree
// order over the factor interaction graph, with ties broken by variable
// id so elimination — and therefore floating-point results — are
// bit-identical run to run.
func (n *Network) eliminationOrder() []int {
	nv := len(n.vars)
	adj := make([][]bool, nv)
	for i := range adj {
		adj[i] = make([]bool, nv)
	}
	for _, f := range n.factors {
		for _, a := range f.vars {
			for _, b := range f.vars {
				if a != b {
					adj[a][b] = true
				}
			}
		}
	}
	remaining := make([]bool, nv)
	for i := range remaining {
		remaining[i] = true
	}
	order := make([]int, 0, nv-1)
	for len(order) < nv-1 {
		best, bestDeg := -1, nv+1
		for v := 0; v < nv; v++ {
			if !remaining[v] || v == n.root {
				continue
			}
			deg := 0
			for u := 0; u < nv; u++ {
				if remaining[u] && adj[v][u] {
					deg++
				}
			}
			if deg < bestDeg {
				best, bestDeg = v, deg
			}
		}
		// Connect the eliminated variable's remaining neighbors (fill-in),
		// mirroring the factor that elimination will create.
		for a := 0; a < nv; a++ {
			if !remaining[a] || !adj[best][a] || a == best {
				continue
			}
			for b := a + 1; b < nv; b++ {
				if remaining[b] && adj[best][b] {
					adj[a][b], adj[b][a] = true, true
				}
			}
		}
		remaining[best] = false
		order = append(order, best)
	}
	return order
}
