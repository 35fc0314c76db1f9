package hier

import (
	"fmt"
	"sync/atomic"

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
	// fallbacks[i] counts the evaluations that stopped at step i.
	fallbacks []atomic.Int64
}

// step is one node of a Plan's leaf-first order.
type step[P any] struct {
	node *Node[P]
	// children are the step indices whose equivalent rates fill bound.
	children []int
	// tmpl is the node's chain built at the base parameters, nil when it
	// did not build or is too large for the dense method; every
	// evaluation then falls back at this step.
	tmpl    *ctmc.Model
	rewards []float64
	down    []bool
}

// Compile compiles the hierarchy rooted at root. Each template is emitted
// at the base parameters with every bound rate set to 1, so a chain whose
// shape depends on a bound rate (a state dropped when a child's λ_eq
// underflows to 0) takes the shape positive rates give. A template that
// does not build, is reducible, or is larger than SteadyState's dense
// threshold is not an error: every evaluation falls back at that node.
func Compile[P any](root *Node[P], base P) (*Plan[P], error) {
	pl := &Plan[P]{}
	if _, err := pl.add(root, &base, make(map[*Node[P]]bool)); err != nil {
		return nil, err
	}
	pl.fallbacks = make([]atomic.Int64, len(pl.steps))
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
// cannot evaluate it.
func (st *step[P]) template(base *P) {
	bound := make([]float64, 2*len(st.children))
	for i := range bound {
		bound[i] = 1
	}
	b := ctmc.NewBuilder()
	st.node.Emit(b, base, bound)
	m, err := b.Build()
	if err != nil || ctmc.AutoMethod(m.NumStates()) != ctmc.MethodDense {
		return
	}
	s, err := st.node.Rewards(m)
	if err != nil {
		return
	}
	st.tmpl = m
	st.rewards = make([]float64, m.NumStates())
	st.down = make([]bool, m.NumStates())
	for i := range st.rewards {
		st.rewards[i] = s.Rate(ctmc.State(i))
		st.down[i] = st.rewards[i] == 0
	}
}

// Workspace holds everything one evaluation of a Plan writes: each node's
// re-rated transitions, bound rates, stationary distribution and
// measures, and the dense solver's scratch. A Workspace is not safe for
// concurrent use; give each goroutine its own (a sync.Pool of them
// suits workers that come and go).
type Workspace[P any] struct {
	p       P
	solver  *ctmc.Solver
	rerate  []*ctmc.Rerater
	bound   [][]float64
	results []reward.Result
}

// NewWorkspace returns a workspace for evaluating pl.
func (pl *Plan[P]) NewWorkspace() *Workspace[P] {
	ws := &Workspace[P]{
		solver:  ctmc.NewSolver(),
		rerate:  make([]*ctmc.Rerater, len(pl.steps)),
		bound:   make([][]float64, len(pl.steps)),
		results: make([]reward.Result, len(pl.steps)),
	}
	for i, st := range pl.steps {
		ws.bound[i] = make([]float64, 2*len(st.children))
		if st.tmpl != nil {
			ws.rerate[i] = ctmc.NewRerater(st.tmpl)
			ws.results[i].Pi = make([]float64, st.tmpl.NumStates())
		}
	}
	return ws
}

// Eval evaluates the hierarchy at p into ws, a workspace of pl, leaf
// first: each node's template is re-rated through its emitter, solved by
// the dense method, and its measures computed, its λ_eq/μ_eq feeding its
// parent's bound rates. The arithmetic is that of Evaluate over
// components that build the same chains (SteadyState's dense method, then
// reward.Structure.FromPi), in the same order, so the measures equal
// Evaluate's bit for bit. An evaluation records no span and no solve
// timer; each solve still counts in ctmc_solves_total.
//
// Eval reports false at the first node with no template, whose emission
// does not match its template (ctmc.Rerater), or whose solve or measures
// fail, and counts a fallback against that node. The caller then
// evaluates p by building every chain afresh (Evaluate), which gives the
// right topology, result or error. On true, ws.Results holds the measures.
func (pl *Plan[P]) Eval(ws *Workspace[P], p P) bool {
	ws.p = p
	for i := range pl.steps {
		if !ws.eval(i, &pl.steps[i]) {
			pl.fallbacks[i].Add(1)
			return false
		}
	}
	return true
}

// eval evaluates step i into ws.
func (ws *Workspace[P]) eval(i int, st *step[P]) bool {
	r := ws.rerate[i]
	if r == nil {
		return false
	}
	bound := ws.bound[i]
	for k, c := range st.children {
		bound[2*k], bound[2*k+1] = ws.results[c].LambdaEq, ws.results[c].MuEq
	}
	r.Reset()
	st.node.Emit(r, &ws.p, bound)
	res := &ws.results[i]
	return r.Matched() &&
		r.SolveDense(ws.solver, res.Pi) == nil &&
		reward.Measure(res, res.Pi, st.rewards, r.EntryFrequency(res.Pi, st.down)) == nil
}

// Results returns the measures of an Eval that reported true, one per
// node in leaf-first order (children before their parent; the root last).
// The slice and each Pi are the workspace's own, overwritten by the next
// Eval.
func (ws *Workspace[P]) Results() []reward.Result { return ws.results }

// Fallbacks returns, by node name, how many evaluations stopped at that
// node and fell back; nodes that never did are absent.
func (pl *Plan[P]) Fallbacks() map[string]int64 {
	out := make(map[string]int64)
	for i, st := range pl.steps {
		if n := pl.fallbacks[i].Load(); n > 0 {
			out[st.node.Name] += n
		}
	}
	return out
}
