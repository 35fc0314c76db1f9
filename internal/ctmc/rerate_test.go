package ctmc

import (
	"errors"
	"math"
	"testing"
)

// emitRing writes a three-state ring A→B→C→A with a B→A shortcut.
func emitRing(rates [4]float64) func(Sink) {
	return func(sk Sink) {
		a, b, c := sk.State("A"), sk.State("B"), sk.State("C")
		sk.Transition(a, b, rates[0])
		sk.Transition(b, c, rates[1])
		sk.Transition(c, a, rates[2])
		sk.Transition(b, a, rates[3])
	}
}

func buildFrom(t *testing.T, emit func(Sink)) (*Model, error) {
	t.Helper()
	b := NewBuilder()
	emit(b)
	return b.Build()
}

// rerate runs emit against a fresh Rerater over tmpl.
func rerate(tmpl *Model, emit func(Sink)) *Rerater {
	r := NewRerater(tmpl)
	emit(r)
	return r
}

func TestRerateMatchesBuild(t *testing.T) {
	t.Parallel()
	tmpl, err := buildFrom(t, emitRing([4]float64{1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	rates := [4]float64{0.5, 7, 1e-6, 3}
	r := rerate(tmpl, emitRing(rates))
	if !r.Matched() {
		t.Fatal("Rerater reported no match for a same-shape emission")
	}
	want, err := buildFrom(t, emitRing(rates))
	if err != nil {
		t.Fatal(err)
	}
	gt, wt := r.Transitions(), want.Transitions()
	if len(gt) != len(wt) {
		t.Fatalf("got %d transitions, want %d", len(gt), len(wt))
	}
	for i := range wt {
		if gt[i] != wt[i] {
			t.Errorf("transition %d = %+v, want %+v", i, gt[i], wt[i])
		}
	}
	// SolveDense is SteadyState's dense path: same bits, and the same
	// entry frequency as the built model.
	gp := make([]float64, 3)
	if err := r.SolveDense(NewSolver(), gp); err != nil {
		t.Fatal(err)
	}
	wp, err := want.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Errorf("π[%d] = %v, want %v", i, gp[i], wp[i])
		}
	}
	if got, w := r.EntryFrequency(wp, []bool{false, false, true}), want.EntryFrequency(wp, []bool{false, false, true}); got != w {
		t.Errorf("entry frequency %v, want %v", got, w)
	}
	if err := r.SolveDense(nil, make([]float64, 2)); !errors.Is(err, ErrBadModel) {
		t.Errorf("SolveDense into a short π: err = %v, want ErrBadModel", err)
	}
	// The template keeps its own rates.
	if r := tmpl.Rate(0, 1); r != 1 {
		t.Errorf("template rate A→B = %v after re-rating, want 1", r)
	}
	// A reset Rerater takes the next emission from scratch.
	r.Reset()
	emitRing([4]float64{1, 2, 3, 4})(r)
	if !r.Matched() || r.Transitions()[0].Rate != 1 {
		t.Errorf("after Reset: matched %v, transitions %+v", r.Matched(), r.Transitions())
	}
}

func TestRerateNoMatch(t *testing.T) {
	t.Parallel()
	tmpl, err := buildFrom(t, emitRing([4]float64{1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(Sink){
		"zero rate":     emitRing([4]float64{1, 2, 3, 0}),
		"negative rate": emitRing([4]float64{1, -2, 3, 4}),
		"NaN rate":      emitRing([4]float64{1, 2, math.NaN(), 4}),
		"infinite rate": emitRing([4]float64{math.Inf(1), 2, 3, 4}),
		"absent transition": func(sk Sink) {
			emitRing([4]float64{1, 2, 3, 4})(sk)
			sk.Transition(0, 2, 1)
		},
		"slot written twice": func(sk Sink) {
			emitRing([4]float64{1, 2, 3, 4})(sk)
			sk.Transition(0, 1, 1)
		},
		"slot never written": func(sk Sink) {
			a, b, c := sk.State("A"), sk.State("B"), sk.State("C")
			sk.Transition(a, b, 1)
			sk.Transition(b, c, 1)
			sk.Transition(c, a, 1)
		},
		"fewer states": func(sk Sink) {
			a, b := sk.State("A"), sk.State("B")
			sk.Transition(a, b, 1)
			sk.Transition(b, a, 1)
		},
		"more states": func(sk Sink) {
			emitRing([4]float64{1, 2, 3, 4})(sk)
			sk.State("D")
		},
		"renamed state": func(sk Sink) {
			a, b, c := sk.State("A"), sk.State("X"), sk.State("C")
			sk.Transition(a, b, 1)
			sk.Transition(b, c, 2)
			sk.Transition(c, a, 3)
			sk.Transition(b, a, 4)
		},
		"unknown source state": func(sk Sink) {
			emitRing([4]float64{1, 2, 3, 4})(sk)
			sk.Transition(7, 0, 1)
		},
	}
	for name, emit := range cases {
		if rerate(tmpl, emit).Matched() {
			t.Errorf("%s: Rerater matched", name)
		}
	}
	// Unnamed states match by position.
	unnamed := func(sk Sink) {
		a, b, c := sk.State(""), sk.State(""), sk.State("")
		sk.Transition(a, b, 1)
		sk.Transition(b, c, 2)
		sk.Transition(c, a, 3)
		sk.Transition(b, a, 4)
	}
	if !rerate(tmpl, unnamed).Matched() {
		t.Error("unnamed same-shape emission did not match")
	}
}

func TestRerateAllocations(t *testing.T) {
	tmpl, err := buildFrom(t, emitRing([4]float64{1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	emit := emitRing([4]float64{2, 3, 4, 5})
	r, s, pi := NewRerater(tmpl), NewSolver(), make([]float64, 3)
	reuse := func() {
		r.Reset()
		emit(r)
		if !r.Matched() || r.SolveDense(s, pi) != nil {
			t.Fatal("re-rated ring did not solve")
		}
	}
	reuse()
	if n := testing.AllocsPerRun(100, reuse); n != 0 {
		t.Errorf("re-rating and solving in place allocates %v times, want 0", n)
	}
}
