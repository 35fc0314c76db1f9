package hier

import (
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/reward"
)

// Node declares one chain of a hierarchy for Compile. Where a Component
// builds its model from a parameter map at every evaluation, a Node emits
// its chain into a ctmc.Sink, so a compiled Plan builds the chain once
// and afterwards only re-rates it.
type Node[P any] struct {
	// Name is the node's display name.
	Name string
	// Emit writes the chain into sk — its states in a fixed order, then
	// its rated transitions — from the evaluation's parameters p and from
	// bound, the equivalent rates of the node's children: λ_eq then μ_eq
	// of each child, in Children order.
	Emit func(sk ctmc.Sink, p *P, bound []float64)
	// Rewards wraps a chain built by Emit in its reward structure.
	Rewards func(m *ctmc.Model) (*reward.Structure, error)
	// Children are evaluated before the node, in order.
	Children []*Node[P]
}

// Plan is a hierarchy compiled for many evaluations at different
// parameters (sweeps, Monte-Carlo sampling). Compile fixes the topology
// once: the nodes in leaf-first order, which children's equivalent rates
// feed which bound slots, and each node's template chain with its reward
// vector and down set. Eval then re-rates each template in place through
// its emitter, solves it and computes its measures into a Workspace,
// without building a model, a parameter map or a result tree.
//
// A Plan is read-only after Compile and safe for concurrent use; each
// goroutine evaluates into its own Workspace.
type Plan[P any] struct {
	steps []step[P]
}

// step is one node of a Plan's leaf-first order.
type step[P any] struct {
	node *Node[P]
	// children are the step indices whose equivalent rates fill bound.
	children []int
	// tmpl is the node's chain built at the base parameters, nil when it
	// did not build, is reducible or is too large for the dense method;
	// every evaluation then builds the node.
	tmpl    *ctmc.Model
	rewards []float64
	down    []bool
}

// Compile compiles the hierarchy rooted at root. Each template is emitted
// at the base parameters with every bound rate set to 1, so a chain whose
// shape depends on a bound rate (a state dropped when a child's λ_eq
// underflows to 0) takes the shape positive rates give. A template that
// does not build, is reducible, or is larger than SteadyState's dense
// threshold is not an error: every evaluation builds that node instead.
func Compile[P any](root *Node[P], base P) (*Plan[P], error) {
	pl := &Plan[P]{}
	if _, err := pl.add(root, &base, make(map[*Node[P]]bool)); err != nil {
		return nil, err
	}
	return pl, nil
}

// add appends n's subtree to the leaf-first order and returns n's step
// index. A node reached twice (a shared child) gets a step per use, as
// Evaluate solves it per use.
func (pl *Plan[P]) add(n *Node[P], base *P, visiting map[*Node[P]]bool) (int, error) {
	if n == nil {
		return 0, fmt.Errorf("nil node: %w", ErrBadComponent)
	}
	if n.Emit == nil || n.Rewards == nil {
		return 0, fmt.Errorf("node %q has no emitter or rewards: %w", n.Name, ErrBadComponent)
	}
	if visiting[n] {
		return 0, fmt.Errorf("node %q: %w", n.Name, ErrCycle)
	}
	visiting[n] = true
	defer delete(visiting, n)

	st := step[P]{node: n}
	for _, c := range n.Children {
		i, err := pl.add(c, base, visiting)
		if err != nil {
			return 0, err
		}
		st.children = append(st.children, i)
	}
	st.template(base)
	pl.steps = append(pl.steps, st)
	return len(pl.steps) - 1, nil
}

// template builds st's chain at base, leaving tmpl nil when the plan
// cannot re-rate it.
func (st *step[P]) template(base *P) {
	bound := make([]float64, 2*len(st.children))
	for i := range bound {
		bound[i] = 1
	}
	s, err := st.node.build(base, bound)
	if err != nil || ctmc.AutoMethod(s.Model().NumStates()) != ctmc.MethodDense || !s.Model().IsIrreducible() {
		return
	}
	st.tmpl = s.Model()
	st.rewards = make([]float64, st.tmpl.NumStates())
	st.down = make([]bool, st.tmpl.NumStates())
	for i := range st.rewards {
		st.rewards[i] = s.Rate(ctmc.State(i))
		st.down[i] = st.rewards[i] == 0
	}
}

// build builds n's chain through ctmc.Builder at p and bound, in its
// reward structure.
func (n *Node[P]) build(p *P, bound []float64) (*reward.Structure, error) {
	b := ctmc.NewBuilder()
	n.Emit(b, p, bound)
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	return n.Rewards(m)
}

// Workspace holds everything one evaluation of a Plan writes: each node's
// re-rated transitions, bound rates, stationary distribution, measures
// and solved chain, and the dense solver's scratch. A Workspace is not
// safe for concurrent use; give each goroutine its own (a sync.Pool of
// them suits workers that come and go).
type Workspace[P any] struct {
	plan    *Plan[P]
	p       P
	solver  *ctmc.Solver
	rerate  []*ctmc.Rerater
	bound   [][]float64
	pi      [][]float64
	results []reward.Result
	chains  []*ctmc.Model
}

// NewWorkspace returns a workspace for evaluating pl whose solves use s's
// scratch (a nil s allocates it per solve, as in ctmc.SolveOptions). The
// workspace uses s until it is dropped, so s must not serve another
// goroutine meanwhile.
func (pl *Plan[P]) NewWorkspace(s *ctmc.Solver) *Workspace[P] {
	ws := &Workspace[P]{
		plan:    pl,
		solver:  s,
		rerate:  make([]*ctmc.Rerater, len(pl.steps)),
		bound:   make([][]float64, len(pl.steps)),
		pi:      make([][]float64, len(pl.steps)),
		results: make([]reward.Result, len(pl.steps)),
		chains:  make([]*ctmc.Model, len(pl.steps)),
	}
	for i, st := range pl.steps {
		ws.bound[i] = make([]float64, 2*len(st.children))
		if st.tmpl != nil {
			ws.rerate[i] = ctmc.NewRerater(st.tmpl)
			ws.pi[i] = make([]float64, st.tmpl.NumStates())
		}
	}
	return ws
}

// Eval evaluates the hierarchy at p into ws, a workspace of pl, leaf
// first, each node's λ_eq/μ_eq feeding its parent's bound rates. A node
// whose emission matches its template (ctmc.Rerater) is re-rated in
// place, solved by the dense method and measured with no span, no solve
// timer and no allocation. Any other node — one with no template, whose
// emission does not match it (a state or edge dropped or added), or whose
// re-rated chain does not solve — is built for this evaluation (Build)
// and solved by SteadyState on ws's solver. Either way the arithmetic is
// that of Evaluate over components that build the same chains
// (SteadyState, then reward.Structure.FromPi), in the same order, so the
// measures equal Evaluate's bit for bit; each solve counts in
// ctmc_solves_total.
//
// Eval stops at the first node that fails, with Evaluate's error for it:
// `build "<node>": …` or `solve "<node>": …`. On success ws.Results
// holds the measures and ws.Chain the chains solved.
func (pl *Plan[P]) Eval(ws *Workspace[P], p P) error {
	ws.p = p
	for i := range pl.steps {
		if err := ws.eval(i, &pl.steps[i]); err != nil {
			return err
		}
	}
	return nil
}

// eval evaluates step i into ws.
func (ws *Workspace[P]) eval(i int, st *step[P]) error {
	bound := ws.bound[i]
	for k, c := range st.children {
		bound[2*k], bound[2*k+1] = ws.results[c].LambdaEq, ws.results[c].MuEq
	}
	res := &ws.results[i]
	if r := ws.rerate[i]; r != nil {
		r.Reset()
		st.node.Emit(r, &ws.p, bound)
		pi := ws.pi[i]
		if r.Matched() && r.SolveDense(ws.solver, pi) == nil &&
			reward.Measure(res, pi, st.rewards, r.EntryFrequency(pi, st.down)) == nil {
			res.Pi, ws.chains[i] = pi, st.tmpl
			return nil
		}
	}
	s, err := ws.Build(i)
	if err != nil {
		return err
	}
	solved, err := s.Solve(ctmc.SolveOptions{Solver: ws.solver})
	if err != nil {
		return fmt.Errorf("solve %q: %w", st.node.Name, err)
	}
	*res, ws.chains[i] = *solved, s.Model()
	return nil
}

// Build builds node i (leaf-first, as Results) afresh through
// ctmc.Builder at the last Eval's parameters and bound rates, in the
// node's reward structure. It is how Eval solves a node it cannot
// re-rate, and how a caller gets the full chain of a node Eval re-rated
// (for a transient analysis, say).
func (ws *Workspace[P]) Build(i int) (*reward.Structure, error) {
	n := ws.plan.steps[i].node
	s, err := n.build(&ws.p, ws.bound[i])
	if err != nil {
		return nil, fmt.Errorf("build %q: %w", n.Name, err)
	}
	return s, nil
}

// Results returns the measures of the last successful Eval, one per node
// in leaf-first order (children before their parent; the root last). The
// slice and each Pi of a re-rated node are the workspace's own,
// overwritten by the next Eval.
func (ws *Workspace[P]) Results() []reward.Result { return ws.results }

// Chain returns the chain node i solved in the last successful Eval: its
// template, or the chain Eval built. Its state names key the node's π.
func (ws *Workspace[P]) Chain(i int) *ctmc.Model { return ws.chains[i] }
