package jsas

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

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

// TestCompiledMatchesSolve is the differential test of compile-once
// evaluation: for seeded random parameter sets and the edge cases where a
// chain's shape changes, solving through a configuration's compiled
// templates must equal a fresh Solve bit for bit (and fail with the same
// error text), and exactly the expected chains must take the build
// fallback — a template that silently never matched would fail here.
func TestCompiledMatchesSolve(t *testing.T) {
	t.Parallel()
	def := DefaultParams()
	with := func(f func(*Params)) Params { p := def; f(&p); return p }
	betaBase := with(func(p *Params) { p.Beta = 0.1 })

	type tc struct {
		name      string
		cfg       Config
		base, p   Params
		fallbacks int64 // chains built afresh for this evaluation
		wantErr   bool
	}
	cases := []tc{
		{name: "FIR = 0 drops Ok→2_Down", cfg: Config1, base: def,
			p: with(func(p *Params) { p.FIR = 0 }), fallbacks: 1},
		// FSS ∈ {0, 1} drops a recovery branch, leaving the chain
		// reducible: both paths must report the same solve error.
		{name: "FSS = 0 (no AS software failures)", cfg: Config2, base: def,
			p: with(func(p *Params) { p.ASFailuresPerYear = 0 }), fallbacks: 1, wantErr: true},
		{name: "FSS = 1 (no AS OS/HW failures)", cfg: Config1, base: def,
			p: with(func(p *Params) { p.ASOSFailuresPerYear, p.ASHWFailuresPerYear = 0, 0 }), fallbacks: 1, wantErr: true},
		{name: "Beta > 0 over a Beta = 0 template", cfg: Config1, base: def, p: betaBase, fallbacks: 1},
		{name: "Beta > 0 template", cfg: Config2, base: betaBase,
			p: with(func(p *Params) { p.Beta = 0.05; p.ASFailuresPerYear = 20 })},
		{name: "Table 3 row 1", cfg: Table3Configs()[0], base: def,
			p: with(func(p *Params) { p.ASRestartLong = 2 * time.Hour })},
		{name: "wide cluster: La_appl underflows", cfg: Config{ASInstances: 12, HADBPairs: 6, HADBSpares: 2},
			base: def, p: def, fallbacks: 1},
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
		comp := compile(c.cfg, c.base)
		got, gerr := comp.solve(c.p)
		want, werr := Solve(c.cfg, c.p)
		if (gerr != nil) != c.wantErr || (werr != nil) != c.wantErr {
			t.Fatalf("case %d (%s): compiled err %v, fresh err %v, want error %v", i, c.name, gerr, werr, c.wantErr)
		}
		if n := comp.fallbacks.Load(); n != c.fallbacks {
			t.Errorf("case %d (%s): %d chains built afresh, want %d", i, c.name, n, c.fallbacks)
		}
		if c.wantErr {
			if gerr.Error() != werr.Error() {
				t.Errorf("case %d (%s): compiled error %q, fresh %q", i, c.name, gerr, werr)
			}
			continue
		}
		if !reflect.DeepEqual(resultBits(reflect.ValueOf(got), nil), resultBits(reflect.ValueOf(want), nil)) {
			t.Errorf("case %d (%s): compiled result differs from Solve\n got %+v\nwant %+v", i, c.name, got, want)
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
// Figure 7 (Config 1) and Figure 8 (Config 2) sample. Building every
// chain afresh costs 158 and 193.
func TestUncertaintySampleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	assignment := map[string]float64{
		ParamASFailures: 30, ParamHADBFailures: 2, ParamOSFailures: 1,
		ParamHWFailures: 1, ParamTstartLong: 1.5, ParamFIR: 0.001,
	}
	for _, c := range []struct {
		cfg   Config
		limit float64
	}{{Config1, 70}, {Config2, 75}} {
		solve := UncertaintySolver(c.cfg, DefaultParams())
		if _, err := solve(assignment); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { _, _ = solve(assignment) }); n > c.limit {
			t.Errorf("%v: %v allocations per sample, want ≤ %v", c.cfg, n, c.limit)
		}
	}
}
