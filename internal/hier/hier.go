// Package hier implements RAScad-style hierarchical model composition:
// a tree of Markov reward submodels in which each child is solved first and
// abstracted into an equivalent two-state (λ_eq, μ_eq) pair, which is then
// bound into the parent model's parameter environment under caller-chosen
// names (the `$Lambda1`/`$Mu1` convention in the paper's Figure 2).
package hier

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/reward"
	"repro/internal/trace"
)

// Common errors.
var (
	// ErrCycle is reported when components form a dependency cycle.
	ErrCycle = errors.New("hier: dependency cycle")
	// ErrBadComponent is reported for structurally invalid components.
	ErrBadComponent = errors.New("hier: invalid component")
)

// Params is the parameter environment threaded through an evaluation.
// Child results are added under the binding names before the parent builds.
type Params map[string]float64

// Lookup implements expr.Env.
func (p Params) Lookup(name string) (float64, bool) {
	v, ok := p[name]
	return v, ok
}

// Clone returns an independent copy.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// BuildFunc constructs a component's Markov reward structure from the
// current parameter environment.
type BuildFunc func(p Params) (*reward.Structure, error)

// Component is a node in the model hierarchy.
type Component struct {
	name     string
	build    BuildFunc
	children []binding
}

type binding struct {
	child       *Component
	lambdaParam string
	muParam     string
}

// NewComponent creates a hierarchy node with the given display name and
// model builder.
func NewComponent(name string, build BuildFunc) *Component {
	return &Component{name: name, build: build}
}

// Name returns the component's display name.
func (c *Component) Name() string { return c.name }

// Use declares that this component's model references the child's
// equivalent rates: before this component is built, child is evaluated and
// its λ_eq/μ_eq are bound into the parameter environment under lambdaParam
// and muParam.
func (c *Component) Use(child *Component, lambdaParam, muParam string) *Component {
	c.children = append(c.children, binding{child: child, lambdaParam: lambdaParam, muParam: muParam})
	return c
}

// Evaluation is the solved result tree for a component and its subtree.
type Evaluation struct {
	Name string
	// Result holds the solved measures of this component's own model.
	Result *reward.Result
	// Structure is the reward structure the component built, giving access
	// to the underlying model and its state names.
	Structure *reward.Structure
	// Children holds the evaluations of the subcomponents, in Use order.
	Children []*Evaluation
}

// Find returns the evaluation of the named (sub)component, or nil.
func (e *Evaluation) Find(name string) *Evaluation {
	if e == nil {
		return nil
	}
	if e.Name == name {
		return e
	}
	for _, c := range e.Children {
		if r := c.Find(name); r != nil {
			return r
		}
	}
	return nil
}

// Options configures an evaluation.
type Options struct {
	// Solve is threaded to every submodel solve. When Solve.Solver is nil,
	// Evaluate installs a fresh ctmc.Solver for the duration of the call so
	// the submodels of one hierarchy share scratch storage.
	// Callers evaluating one hierarchy at many parameter points (sweeps,
	// Monte-Carlo sampling) should declare it as Nodes and Compile it:
	// a Plan re-rates chains built once instead of building them per call.
	Solve ctmc.SolveOptions
}

// Evaluate solves the hierarchy rooted at c bottom-up: children first, each
// reduced to (λ_eq, μ_eq) and bound into a copy of params for the parent
// build. The input params map is not modified. It is EvaluateCtx with a
// background context.
func Evaluate(c *Component, params Params, opts Options) (*Evaluation, error) {
	return EvaluateCtx(context.Background(), c, params, opts)
}

// EvaluateCtx is Evaluate with cancellation: the context is checked
// before each component build and threaded into every submodel solve (via
// ctmc.SolveOptions.Ctx), so a canceled evaluation aborts within one
// component — or mid-solve, at the iterative solvers' check granularity —
// returning an error wrapping ctx.Err(). A span in ctx gets a
// hier.evaluate child, one hier.component span per component under it,
// and each submodel's ctmc.solve under its component; an untraced ctx
// records nothing.
func EvaluateCtx(ctx context.Context, c *Component, params Params, opts Options) (*Evaluation, error) {
	if opts.Solve.Solver == nil {
		opts.Solve.Solver = ctmc.NewSolver()
	}
	if opts.Solve.Ctx == nil {
		opts.Solve.Ctx = ctx
	}
	span := trace.Child(ctx, "hier.evaluate", 2)
	ev, err := evaluate(trace.ContextWith(ctx, span), c, params, opts, make(map[*Component]bool))
	if span != nil {
		name := "hierarchy"
		if c != nil {
			name = c.name
		}
		span.Attr(trace.String("root", name), trace.Bool("error", err != nil))
		span.End()
	}
	return ev, err
}

func evaluate(ctx context.Context, c *Component, params Params, opts Options, visiting map[*Component]bool) (*Evaluation, error) {
	if c == nil {
		return nil, fmt.Errorf("nil component: %w", ErrBadComponent)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hier: evaluation canceled at %q: %w", c.name, err)
		}
	}
	if c.build == nil {
		return nil, fmt.Errorf("component %q has no build function: %w", c.name, ErrBadComponent)
	}
	if visiting[c] {
		return nil, fmt.Errorf("component %q: %w", c.name, ErrCycle)
	}
	visiting[c] = true
	defer delete(visiting, c)

	span := trace.Child(ctx, "hier.component", 1)
	if span != nil {
		span.Attr(trace.String("component", c.name))
		defer span.End()
		ctx = trace.ContextWith(ctx, span)
		opts.Solve.Ctx = trace.ContextWith(opts.Solve.Ctx, span)
	}

	env := params.Clone()
	ev := &Evaluation{Name: c.name}
	for _, b := range c.children {
		childEv, err := evaluate(ctx, b.child, params, opts, visiting)
		if err != nil {
			return nil, err
		}
		ev.Children = append(ev.Children, childEv)
		if b.lambdaParam != "" {
			env[b.lambdaParam] = childEv.Result.LambdaEq
		}
		if b.muParam != "" {
			env[b.muParam] = childEv.Result.MuEq
		}
	}
	structure, err := c.build(env)
	if err != nil {
		return nil, fmt.Errorf("build %q: %w", c.name, err)
	}
	res, err := structure.Solve(opts.Solve)
	if err != nil {
		return nil, fmt.Errorf("solve %q: %w", c.name, err)
	}
	ev.Result = res
	ev.Structure = structure
	return ev, nil
}
