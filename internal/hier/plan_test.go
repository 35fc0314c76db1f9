package hier

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/reward"
)

// leafRates parameterizes the plan tests' leaf chain.
type leafRates struct{ la, mu, direct float64 }

// emitLeaf writes a three-state repairable chain; direct = 0 drops the
// Up→Down edge, changing the chain's shape.
func emitLeaf(sk ctmc.Sink, p *leafRates, _ []float64) {
	up, deg, down := sk.State("Up"), sk.State("Degraded"), sk.State("Down")
	sk.Transition(up, deg, p.la)
	sk.Transition(deg, up, p.mu)
	sk.Transition(deg, down, 2*p.la)
	sk.Transition(down, up, p.mu/2)
	sk.Transition(up, down, p.direct)
}

// emitPair writes a parent over two uses of one child: bound holds λ_eq,
// μ_eq of each use. Its three failure states make the down-set sums
// order-sensitive.
func emitPair(sk ctmc.Sink, _ *leafRates, bound []float64) {
	ok, f1, f2, both := sk.State("Ok"), sk.State("F1"), sk.State("F2"), sk.State("Both")
	sk.Transition(ok, f1, bound[0])
	sk.Transition(f1, ok, bound[1])
	sk.Transition(ok, f2, bound[2])
	sk.Transition(f2, ok, bound[3])
	sk.Transition(f1, both, bound[2])
	sk.Transition(both, ok, bound[1])
}

func okOnly(m *ctmc.Model) (*reward.Structure, error) {
	rates := make([]float64, m.NumStates())
	rates[0] = 1
	return reward.New(m, rates)
}

func leafRewards(m *ctmc.Model) (*reward.Structure, error) { return reward.Binary(m, "Down") }

// pairPlan compiles the diamond: one leaf node used twice by the parent.
func pairPlan(t *testing.T, base leafRates) *Plan[leafRates] {
	t.Helper()
	leaf := &Node[leafRates]{Name: "leaf", Emit: emitLeaf, Rewards: leafRewards}
	root := &Node[leafRates]{Name: "pair", Emit: emitPair, Rewards: okOnly, Children: []*Node[leafRates]{leaf, leaf}}
	pl, err := Compile(root, base)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// emitted is a BuildFunc that builds a chain by emit, its bound rates
// read from the environment names, in order.
func emitted(p leafRates, emit func(ctmc.Sink, *leafRates, []float64), rewards func(*ctmc.Model) (*reward.Structure, error), names ...string) BuildFunc {
	return func(env Params) (*reward.Structure, error) {
		bound := make([]float64, len(names))
		for i, n := range names {
			bound[i] = env[n]
		}
		b := ctmc.NewBuilder()
		emit(b, &p, bound)
		m, err := b.Build()
		if err != nil {
			return nil, err
		}
		return rewards(m)
	}
}

// pairComponents declares the same hierarchy for Evaluate.
func pairComponents(p leafRates) *Component {
	leaf := NewComponent("leaf", emitted(p, emitLeaf, leafRewards))
	root := NewComponent("pair", emitted(p, emitPair, okOnly, "L1", "M1", "L2", "M2"))
	return root.Use(leaf, "L1", "M1").Use(leaf, "L2", "M2")
}

// bits flattens a result's measures and π.
func bits(r *reward.Result) []uint64 {
	var out []uint64
	for _, v := range append([]float64{r.Availability, r.ExpectedReward, r.YearlyDowntimeMinutes,
		r.FailureFrequency, r.MTBFHours, r.MeanDownDurationHours, r.LambdaEq, r.MuEq}, r.Pi...) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestPlanMatchesEvaluate: Eval equals Evaluate bit for bit at every
// node, whether it re-rates the templates or, where the leaf's emission
// drops the Up→Down edge and no longer matches, builds that node.
func TestPlanMatchesEvaluate(t *testing.T) {
	t.Parallel()
	pl := pairPlan(t, leafRates{la: 1, mu: 1, direct: 1})
	ws := pl.NewWorkspace(nil)
	for _, p := range []leafRates{{0.01, 2, 0.001}, {0.3, 0.7, 0.05}, {1e-4, 40, 3e-6}, {0.01, 2, 0}} {
		ev, err := Evaluate(pairComponents(p), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Eval(ws, p); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		want := []*Evaluation{ev.Children[0], ev.Children[1], ev}
		got := ws.Results()
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(bits(&got[i]), bits(want[i].Result)) {
				t.Errorf("%+v: node %d = %+v, Evaluate %+v", p, i, got[i], *want[i].Result)
			}
			if got, want := ws.Chain(i).NumTransitions(), want[i].Structure.Model().NumTransitions(); got != want {
				t.Errorf("%+v: node %d solved a chain of %d transitions, Evaluate %d", p, i, got, want)
			}
		}
	}
}

func TestPlanEvalAllocations(t *testing.T) {
	pl := pairPlan(t, leafRates{la: 1, mu: 1, direct: 1})
	ws := pl.NewWorkspace(ctmc.NewSolver())
	p := leafRates{0.01, 2, 0.001}
	if n := testing.AllocsPerRun(100, func() { _ = pl.Eval(ws, p) }); n != 0 {
		t.Errorf("Eval allocates %v times, want 0", n)
	}
}

// TestPlanBuildsNodeWithoutTemplate: a node the plan cannot re-rate is
// built at every evaluation, with Evaluate's result or error.
func TestPlanBuildsNodeWithoutTemplate(t *testing.T) {
	t.Parallel()
	ring := func(n int) func(ctmc.Sink, *leafRates, []float64) {
		return func(sk ctmc.Sink, p *leafRates, _ []float64) {
			for i := 0; i < n; i++ {
				sk.State("")
			}
			for i := 0; i < n; i++ {
				sk.Transition(ctmc.State(i), ctmc.State((i+1)%n), p.la)
			}
		}
	}
	// The errors each case must report, Evaluate's among them.
	cases := map[string]struct {
		emit    func(ctmc.Sink, *leafRates, []float64)
		wantErr string
	}{
		// SteadyState solves it by Gauss–Seidel.
		"above the dense threshold": {emit: ring(1201)},
		"does not build": {emit: func(sk ctmc.Sink, p *leafRates, b []float64) {
			emitLeaf(sk, p, b)
			sk.Transition(0, 1, -p.la)
		}, wantErr: `build "does not build": `},
		"reducible": {emit: func(sk ctmc.Sink, p *leafRates, _ []float64) {
			a, b := sk.State("A"), sk.State("B")
			sk.Transition(a, b, p.la)
		}, wantErr: `solve "reducible": `},
	}
	p := leafRates{la: 2}
	for name, c := range cases {
		emit := c.emit
		pl, err := Compile(&Node[leafRates]{Name: name, Emit: emit, Rewards: okOnly}, leafRates{la: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ev, werr := Evaluate(NewComponent(name, emitted(p, emit, okOnly)), nil, Options{})
		ws := pl.NewWorkspace(nil)
		gerr := pl.Eval(ws, p)
		if c.wantErr != "" && (gerr == nil || !strings.HasPrefix(gerr.Error(), c.wantErr)) {
			t.Errorf("%s: Eval error %v, want %s…", name, gerr, c.wantErr)
		}
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("%s: Eval error %v, Evaluate %v", name, gerr, werr)
			continue
		}
		if werr == nil && !reflect.DeepEqual(bits(&ws.Results()[0]), bits(ev.Result)) {
			t.Errorf("%s: Eval %+v, Evaluate %+v", name, ws.Results()[0], *ev.Result)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	t.Parallel()
	if _, err := Compile[leafRates](nil, leafRates{}); !errors.Is(err, ErrBadComponent) {
		t.Errorf("nil root: err = %v, want ErrBadComponent", err)
	}
	noEmit := &Node[leafRates]{Name: "x", Rewards: okOnly}
	if _, err := Compile(&Node[leafRates]{Name: "root", Emit: emitPair, Rewards: okOnly,
		Children: []*Node[leafRates]{noEmit}}, leafRates{}); !errors.Is(err, ErrBadComponent) {
		t.Errorf("node without emitter: err = %v, want ErrBadComponent", err)
	}
	a := &Node[leafRates]{Name: "a", Emit: emitLeaf, Rewards: leafRewards}
	b := &Node[leafRates]{Name: "b", Emit: emitLeaf, Rewards: leafRewards, Children: []*Node[leafRates]{a}}
	a.Children = []*Node[leafRates]{b}
	if _, err := Compile(a, leafRates{1, 1, 1}); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle: err = %v, want ErrCycle", err)
	}
}
