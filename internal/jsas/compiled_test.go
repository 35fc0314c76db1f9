package jsas

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/uncertainty"
)

// resultBits flattens every number reachable from v — floats by their
// bits, so results compare bit for bit — with markers for nil pointers
// and slice lengths.
func resultBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Int:
		return append(out, uint64(v.Int()))
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, math.MaxUint64)
		}
		return resultBits(v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = resultBits(v.Field(i), out)
		}
	case reflect.Slice:
		out = append(out, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			out = resultBits(v.Index(i), out)
		}
	}
	return out
}

// randomParams draws a valid parameter set around the paper's defaults,
// with the §7 analysis parameters across (and a little beyond) their
// ranges.
func randomParams(rng *rand.Rand) Params {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	hours := func(lo, hi float64) time.Duration { return time.Duration(u(lo, hi) * float64(time.Hour)) }
	p := DefaultParams()
	p.ASFailuresPerYear = u(5, 80)
	p.HADBFailuresPerYear = u(0.5, 6)
	p.ASOSFailuresPerYear, p.HADBOSFailuresPerYear = u(0.2, 3), u(0.2, 3)
	p.ASHWFailuresPerYear, p.HADBHWFailuresPerYear = u(0.2, 3), u(0.2, 3)
	p.MaintenancePerYear = u(1, 8)
	p.ASRestartLong = hours(0.25, 4)
	p.HADBRestartLong = hours(0.1, 1)
	p.SessionRecovery = hours(0.0005, 0.01)
	p.FIR = u(1e-5, 0.004)
	p.Acceleration = u(1, 3)
	return p
}

// TestCompiledMatchesSolve is the differential test of the compiled
// plan: for seeded random parameter sets and the edge cases where a
// chain's shape changes, solving through a configuration's plan must
// equal a fresh Solve bit for bit — every node's measures and π, and the
// same error text — and exactly the expected chain must send the point
// down the Solve fallback: a template that silently never matched would
// fail here.
func TestCompiledMatchesSolve(t *testing.T) {
	t.Parallel()
	def := DefaultParams()
	with := func(f func(*Params)) Params { p := def; f(&p); return p }
	betaBase := with(func(p *Params) { p.Beta = 0.1 })

	type tc struct {
		name     string
		cfg      Config
		base, p  Params
		fallback string // the chain the evaluation falls back at, if any
		wantErr  bool
	}
	cases := []tc{
		{name: "FIR = 0 drops Ok→2_Down", cfg: Config1, base: def,
			p: with(func(p *Params) { p.FIR = 0 }), fallback: "HADB Node Pair"},
		// FSS ∈ {0, 1} drops a recovery branch, leaving the chain
		// reducible: both paths must report the same solve error.
		{name: "FSS = 0 (no AS software failures)", cfg: Config2, base: def,
			p: with(func(p *Params) { p.ASFailuresPerYear = 0 }), fallback: "Appl Server", wantErr: true},
		{name: "FSS = 1 (no AS OS/HW failures)", cfg: Config1, base: def,
			p: with(func(p *Params) { p.ASOSFailuresPerYear, p.ASHWFailuresPerYear = 0, 0 }), fallback: "Appl Server", wantErr: true},
		{name: "Beta > 0 over a Beta = 0 template", cfg: Config1, base: def, p: betaBase, fallback: "JSAS"},
		{name: "Beta > 0 template", cfg: Config2, base: betaBase,
			p: with(func(p *Params) { p.Beta = 0.05; p.ASFailuresPerYear = 20 })},
		{name: "Table 3 row 1", cfg: Table3Configs()[0], base: def,
			p: with(func(p *Params) { p.ASRestartLong = 2 * time.Hour })},
		// Only AS failures far below any real rate underflow a wide
		// cluster's All_Down probability, and with it La_appl.
		{name: "wide cluster: La_appl underflows", cfg: Config{ASInstances: 12, HADBPairs: 6, HADBSpares: 2},
			base: def, p: with(func(p *Params) {
				p.ASFailuresPerYear, p.ASOSFailuresPerYear, p.ASHWFailuresPerYear = 1e-30, 1e-30, 1e-30
			}),
			fallback: "JSAS"},
		{name: "wide cluster", cfg: Config{ASInstances: 12, HADBPairs: 6, HADBSpares: 2}, base: def, p: def},
		{name: "negative rate", cfg: Config1, base: def,
			p: with(func(p *Params) { p.HADBHWFailuresPerYear = -1 }), wantErr: true},
		{name: "bad configuration", cfg: Config{}, base: def, p: def, wantErr: true},
	}
	rng := rand.New(rand.NewSource(14))
	cfgs := []Config{Config1, Config2, Table3Configs()[0], {ASInstances: 3, HADBPairs: 1}, {ASInstances: 6, HADBPairs: 6}}
	for i := 0; i < 60; i++ {
		cases = append(cases, tc{name: "random", cfg: cfgs[i%len(cfgs)], base: randomParams(rng), p: randomParams(rng)})
	}

	for i, c := range cases {
		ps := newPlanSolver(c.cfg, c.base)
		gotA, gotD, gerr := ps.solve(c.p)
		want, werr := Solve(c.cfg, c.p)
		if (gerr != nil) != c.wantErr || (werr != nil) != c.wantErr {
			t.Fatalf("case %d (%s): plan err %v, fresh err %v, want error %v", i, c.name, gerr, werr, c.wantErr)
		}
		wantFallbacks := map[string]int64{}
		if c.fallback != "" {
			wantFallbacks[c.fallback] = 1
		}
		if ps.plan == nil {
			if c.cfg.Validate() == nil {
				t.Fatalf("case %d (%s): no plan for a valid configuration", i, c.name)
			}
		} else if got := ps.plan.Fallbacks(); !reflect.DeepEqual(got, wantFallbacks) {
			t.Errorf("case %d (%s): fell back at %v, want %v", i, c.name, got, wantFallbacks)
		}
		if c.wantErr {
			if gerr.Error() != werr.Error() {
				t.Errorf("case %d (%s): plan error %q, fresh %q", i, c.name, gerr, werr)
			}
			continue
		}
		if math.Float64bits(gotA) != math.Float64bits(want.Availability) ||
			math.Float64bits(gotD) != math.Float64bits(want.YearlyDowntimeMinutes) {
			t.Errorf("case %d (%s): plan availability/downtime %v/%v, Solve %v/%v",
				i, c.name, gotA, gotD, want.Availability, want.YearlyDowntimeMinutes)
		}
		if c.fallback != "" {
			continue
		}
		// Every node's measures, not just the root's.
		ws := ps.plan.NewWorkspace()
		if !ps.plan.Eval(ws, c.p) {
			t.Fatalf("case %d (%s): plan fell back on a second evaluation", i, c.name)
		}
		if got, want := nodeBits(ws.Results()), solveBits(want); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (%s): plan node measures differ from Solve", i, c.name)
		}
	}
}

// nodeBits flattens a plan's node results, leaf first.
func nodeBits(results []reward.Result) []uint64 {
	var out []uint64
	for i := range results {
		out = resultBits(reflect.ValueOf(&results[i]), out)
	}
	return out
}

// solveBits flattens a SystemResult's submodel and system results in a
// plan's leaf-first order: AS, HADB pair (if any), top model.
func solveBits(r *SystemResult) []uint64 {
	out := resultBits(reflect.ValueOf(r.ASSubmodel), nil)
	if r.HADBSubmodel != nil {
		out = resultBits(reflect.ValueOf(r.HADBSubmodel), out)
	}
	return resultBits(reflect.ValueOf(r.System), out)
}

// TestPlanWorkspaceReuse evaluates A, then B, then A again on one
// workspace: both A evaluations must give the same bits, whether B
// succeeded or stopped part-way (FIR = 0 falls back at the HADB pair
// after the AS chain was solved at B), so no state leaks between samples.
func TestPlanWorkspaceReuse(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(18))
	for _, cfg := range []Config{Config1, Config2} {
		pl := newPlanSolver(cfg, DefaultParams()).plan
		ws := pl.NewWorkspace()
		firZero := randomParams(rng)
		firZero.FIR = 0
		for _, b := range []Params{randomParams(rng), firZero} {
			a := randomParams(rng)
			if !pl.Eval(ws, a) {
				t.Fatalf("%v: A fell back", cfg)
			}
			first := nodeBits(ws.Results())
			pl.Eval(ws, b)
			if !pl.Eval(ws, a) {
				t.Fatalf("%v: A fell back after B", cfg)
			}
			if !reflect.DeepEqual(first, nodeBits(ws.Results())) {
				t.Errorf("%v: A evaluated to different bits after B (FIR %v)", cfg, b.FIR)
			}
		}
	}
}

// TestPlanConcurrentSolves runs one planSolver from several goroutines at
// once, each borrowing pooled workspaces, against serial Solve results.
func TestPlanConcurrentSolves(t *testing.T) {
	t.Parallel()
	const workers, perWorker = 4, 25
	rng := rand.New(rand.NewSource(19))
	for _, cfg := range []Config{Config1, Config2} {
		ps := newPlanSolver(cfg, DefaultParams())
		points := make([]Params, workers*perWorker)
		want := make([]float64, len(points))
		for i := range points {
			points[i] = randomParams(rng)
			r, err := Solve(cfg, points[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r.YearlyDowntimeMinutes
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(points); i += workers {
					_, got, err := ps.solve(points[i])
					if err != nil || math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%v point %d: plan %v (err %v), Solve %v", cfg, i, got, err, want[i])
					}
				}
			}(w)
		}
		wg.Wait()
		if fb := ps.plan.Fallbacks(); len(fb) != 0 {
			t.Errorf("%v: fell back %v", cfg, fb)
		}
	}
}

// TestPlanSampleSolveCount pins what one plan sample records: exactly
// three dense solves in ctmc_solves_total (the AS cluster, the HADB pair
// and the top model — perfbench's ctmc.solves_per_sample reads this
// delta) and no SteadyState call, so no per-solve timer sample. Not
// parallel: the counters are process-wide.
func TestPlanSampleSolveCount(t *testing.T) {
	solves := obs.C("ctmc_solves_total", "", `method="dense"`)
	timed := obs.H("ctmc_solve_seconds", "", obs.DurationBuckets)
	p, err := ApplyOverrides(DefaultParams(), map[string]float64{
		ParamASFailures: 30, ParamHADBFailures: 2, ParamOSFailures: 1,
		ParamHWFailures: 1, ParamTstartLong: 1.5, ParamFIR: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{Config1, Config2} {
		ps := newPlanSolver(cfg, DefaultParams())
		beforeSolves, beforeTimed := solves.Value(), timed.Count()
		if _, _, err := ps.solve(p); err != nil {
			t.Fatal(err)
		}
		if n := solves.Value() - beforeSolves; n != 3 {
			t.Errorf("%v: one sample advanced ctmc_solves_total{method=dense} by %d, want 3", cfg, n)
		}
		if n := timed.Count() - beforeTimed; n != 0 {
			t.Errorf("%v: one sample observed %d solve timings, want 0", cfg, n)
		}
		if fb := ps.plan.Fallbacks(); len(fb) != 0 {
			t.Errorf("%v: sample fell back %v", cfg, fb)
		}
	}
}

// TestPhaseIndexFollowsEnumeration pins phaseIndex to the order in which
// emitASCluster declares the phases.
func TestPhaseIndexFollowsEnumeration(t *testing.T) {
	t.Parallel()
	for n := 2; n <= 12; n++ {
		m, next := n-1, 0
		for r := 0; r <= m; r++ {
			for s := 0; s+r <= m; s++ {
				for l := 0; l+s+r <= m; l++ {
					if got := phaseIndex(m, r, s, l); got != next {
						t.Fatalf("n=%d: phaseIndex(%d,%d,%d) = %d, want %d", n, r, s, l, got, next)
					}
					next++
				}
			}
		}
	}
}

// TestUncertaintySolverParallelDeterministic: the compiled solver is
// shared by every worker, so a Figures 7/8 analysis must give the same
// bits at any parallelism and on a repeat with the same seed.
func TestUncertaintySolverParallelDeterministic(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{Config1, Config2} {
		run := func(parallelism int) *uncertainty.Result {
			t.Helper()
			res, err := uncertainty.Run(PaperUncertaintyRanges(), UncertaintySolver(cfg, DefaultParams()),
				uncertainty.Options{Samples: 200, Seed: 7, Parallelism: parallelism})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial := run(1)
		for _, other := range []*uncertainty.Result{run(4), run(1)} {
			for i, d := range serial.Downtimes {
				if math.Float64bits(d) != math.Float64bits(other.Downtimes[i]) {
					t.Fatalf("%v: sample %d = %v on one run, %v on another", cfg, i, d, other.Downtimes[i])
				}
			}
			if !reflect.DeepEqual(serial.Summary, other.Summary) || !reflect.DeepEqual(serial.CIs, other.CIs) {
				t.Errorf("%v: summaries differ between runs", cfg)
			}
		}
	}
}

// TestUncertaintySampleAllocations caps the allocations of one warmed
// Figure 7 (Config 1) and Figure 8 (Config 2) sample, and of one warmed
// Figures 5/6 sweep point. Building every chain afresh costs 158 and 193
// per sample.
func TestUncertaintySampleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const limit = 6
	assignment := map[string]float64{
		ParamASFailures: 30, ParamHADBFailures: 2, ParamOSFailures: 1,
		ParamHWFailures: 1, ParamTstartLong: 1.5, ParamFIR: 0.001,
	}
	for _, cfg := range []Config{Config1, Config2} {
		solve := UncertaintySolver(cfg, DefaultParams())
		if _, err := solve(assignment); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { _, _ = solve(assignment) }); n > limit {
			t.Errorf("%v: %v allocations per sample, want ≤ %v", cfg, n, limit)
		}
		point := SweepSolver(cfg, DefaultParams(), ParamTstartLong)
		if _, _, err := point(1.5); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { _, _, _ = point(1.5) }); n > limit {
			t.Errorf("%v: %v allocations per sweep point, want ≤ %v", cfg, n, limit)
		}
	}
}
