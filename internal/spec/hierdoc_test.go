package spec

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jsas"
	"repro/internal/uncertainty"
)

const hierDoc = `{
  "name": "series",
  "parameters": {"shared": 2},
  "root": "top",
  "models": [
    {
      "name": "leaf",
      "parameters": {"La": 0.01},
      "states": [{"name":"Up","reward":1},{"name":"Down","reward":0}],
      "transitions": [
        {"from":"Up","to":"Down","rate":"La"},
        {"from":"Down","to":"Up","rate":"shared"}
      ]
    },
    {
      "name": "top",
      "states": [{"name":"Ok","reward":1},{"name":"Fail","reward":0}],
      "transitions": [
        {"from":"Ok","to":"Fail","rate":"L1"},
        {"from":"Fail","to":"Ok","rate":"M1"}
      ]
    }
  ],
  "bindings": [
    {"model":"top","child":"leaf","lambda_param":"L1","mu_param":"M1"}
  ]
}`

func TestHierParseAndSolve(t *testing.T) {
	t.Parallel()
	d, err := ParseHier(strings.NewReader(hierDoc))
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	ev, err := d.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Two-state child bound into a two-state parent preserves availability.
	want := 2.0 / 2.01
	if math.Abs(ev.Result.Availability-want) > 1e-12 {
		t.Errorf("availability = %v, want %v", ev.Result.Availability, want)
	}
	if ev.Find("leaf") == nil {
		t.Error("child evaluation missing")
	}
}

func TestHierSolveWithOverrides(t *testing.T) {
	t.Parallel()
	d, err := ParseHier(strings.NewReader(hierDoc))
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	// Override the child's failure rate and the shared repair rate.
	ev, err := d.Solve(context.Background(), map[string]float64{"La": 0.1, "shared": 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := 1.0 / 1.1
	if math.Abs(ev.Result.Availability-want) > 1e-12 {
		t.Errorf("availability = %v, want %v", ev.Result.Availability, want)
	}
	if _, err := d.Solve(context.Background(), map[string]float64{"nope": 1}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown override: err = %v", err)
	}
}

func TestHierValidateRejects(t *testing.T) {
	t.Parallel()
	mutate := func(f func(d *HierDocument)) string {
		d, err := ParseHier(strings.NewReader(hierDoc))
		if err != nil {
			t.Fatalf("ParseHier: %v", err)
		}
		f(d)
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return buf.String()
	}
	cases := map[string]string{
		"no name":       mutate(func(d *HierDocument) { d.Name = "" }),
		"no models":     mutate(func(d *HierDocument) { d.Models = nil }),
		"bad root":      mutate(func(d *HierDocument) { d.Root = "zzz" }),
		"dup model":     mutate(func(d *HierDocument) { d.Models = append(d.Models, d.Models[0]) }),
		"unknown child": mutate(func(d *HierDocument) { d.Bindings[0].Child = "zzz" }),
		"unknown model": mutate(func(d *HierDocument) { d.Bindings[0].Model = "zzz" }),
		"no lambda":     mutate(func(d *HierDocument) { d.Bindings[0].LambdaParam = "" }),
		"self cycle": mutate(func(d *HierDocument) {
			d.Bindings = append(d.Bindings, Binding{Model: "leaf", Child: "top", LambdaParam: "x"})
			// Allow the unbound-var check to pass by wiring x nowhere.
		}),
	}
	for name, doc := range cases {
		name, doc := name, doc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, err := ParseHier(strings.NewReader(doc)); !errors.Is(err, ErrBadSpec) {
				t.Errorf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestHierUnboundParentParam(t *testing.T) {
	t.Parallel()
	// Parent references M1 but the binding only provides L1.
	doc := strings.Replace(hierDoc, `"mu_param":"M1"`, `"mu_param":""`, 1)
	if _, err := ParseHier(strings.NewReader(doc)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("err = %v, want ErrBadSpec (M1 unbound)", err)
	}
}

// TestJSASConfig1Document: the shipped models/jsas-config1.json document
// must reproduce the programmatic Config 1 solution exactly.
func TestJSASConfig1Document(t *testing.T) {
	t.Parallel()
	f, err := os.Open(filepath.Join("..", "..", "models", "jsas-config1.json"))
	if err != nil {
		t.Fatalf("open document: %v", err)
	}
	defer f.Close()
	d, err := ParseHier(f)
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	ev, err := d.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := jsas.Solve(jsas.Config1, jsas.DefaultParams())
	if err != nil {
		t.Fatalf("jsas.Solve: %v", err)
	}
	if math.Abs(ev.Result.Availability-want.Availability) > 1e-12 {
		t.Errorf("document availability %.12f != programmatic %.12f",
			ev.Result.Availability, want.Availability)
	}
	if math.Abs(ev.Result.YearlyDowntimeMinutes-want.YearlyDowntimeMinutes) > 1e-6 {
		t.Errorf("document YD %.6f != programmatic %.6f",
			ev.Result.YearlyDowntimeMinutes, want.YearlyDowntimeMinutes)
	}
	// The document responds to overrides like the programmatic model: 4
	// pairs double the HADB downtime contribution.
	ev4, err := d.Solve(context.Background(), map[string]float64{"N_pair": 4})
	if err != nil {
		t.Fatalf("Solve(N_pair=4): %v", err)
	}
	if ev4.Result.Availability >= ev.Result.Availability {
		t.Error("more pairs should reduce availability")
	}
}

func TestHierEncodeRoundTrip(t *testing.T) {
	t.Parallel()
	d, err := ParseHier(strings.NewReader(hierDoc))
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d2, err := ParseHier(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	ev1, err := d.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := d2.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Result.Availability != ev2.Result.Availability {
		t.Error("round trip changed the solution")
	}
}

// TestDocumentUncertainty: the shipped JSAS document carries the paper's
// §7 uncertain ranges; sampling it reproduces the Figure 7 distribution.
func TestDocumentUncertainty(t *testing.T) {
	t.Parallel()
	f, err := os.Open(filepath.Join("..", "..", "models", "jsas-config1.json"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	d, err := ParseHier(f)
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	if len(d.Uncertain) != 6 {
		t.Fatalf("uncertain params = %d, want 6", len(d.Uncertain))
	}
	res, err := d.RunUncertainty(uncertainty.Options{Samples: 300, Seed: 2004})
	if err != nil {
		t.Fatalf("RunUncertainty: %v", err)
	}
	// Figure 7 regime: mean a few minutes per year.
	if res.Summary.Mean < 2.5 || res.Summary.Mean > 5.5 {
		t.Errorf("mean = %.2f min/yr, want Figure 7 regime (~3.8)", res.Summary.Mean)
	}
}

func TestDocumentUncertaintyValidation(t *testing.T) {
	t.Parallel()
	d, err := ParseHier(strings.NewReader(hierDoc))
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	// No uncertain block declared.
	if _, err := d.RunUncertainty(uncertainty.Options{Samples: 5}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("no ranges: err = %v", err)
	}
	// Undeclared name.
	d.Uncertain = map[string]UncertainRange{"zzz": {Low: 0, High: 1}}
	if _, err := d.RunUncertainty(uncertainty.Options{Samples: 5}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("undeclared: err = %v", err)
	}
	// Inverted range.
	d.Uncertain = map[string]UncertainRange{"shared": {Low: 2, High: 1}}
	if _, err := d.RunUncertainty(uncertainty.Options{Samples: 5}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("inverted: err = %v", err)
	}
	// A valid range samples fine.
	d.Uncertain = map[string]UncertainRange{"shared": {Low: 1, High: 4}}
	res, err := d.RunUncertainty(uncertainty.Options{Samples: 20, Seed: 1})
	if err != nil {
		t.Fatalf("RunUncertainty: %v", err)
	}
	if res.Summary.N != 20 {
		t.Errorf("N = %d", res.Summary.N)
	}
}

// TestFlatDocumentUncertainty samples a flat document's declared ranges.
func TestFlatDocumentUncertainty(t *testing.T) {
	t.Parallel()
	doc := `{
	  "name": "pair",
	  "parameters": {"La": 0.001, "Mu": 2},
	  "uncertain": {"La": {"low": 0.0005, "high": 0.002}},
	  "states": [{"name":"Up","reward":1},{"name":"Down","reward":0}],
	  "transitions": [
	    {"from":"Up","to":"Down","rate":"La"},
	    {"from":"Down","to":"Up","rate":"Mu"}
	  ]
	}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := d.RunUncertainty(uncertainty.Options{Samples: 100, Seed: 3})
	if err != nil {
		t.Fatalf("RunUncertainty: %v", err)
	}
	// Downtime spans the range implied by La ∈ [0.0005, 0.002] at Mu=2:
	// U = La/(La+Mu) ∈ [2.5e-4, 1e-3] → YD ∈ [131, 525] min.
	if res.Summary.Min < 120 || res.Summary.Max > 540 {
		t.Errorf("downtime range = [%v, %v], want within [120, 540]", res.Summary.Min, res.Summary.Max)
	}
}
