// Command avail-solve loads a declarative JSON Markov reward model (see
// internal/spec) — flat or hierarchical — and solves it for availability,
// yearly downtime, MTBF, and the equivalent two-state rates: the generic
// replacement for solving a RAScad diagram (or diagram hierarchy).
//
// Usage:
//
//	avail-solve [-set name=value ...] model.json
//	avail-solve -hier [-set name=value ...] hierarchy.json
//	avail-solve -dot model.json          # emit the Graphviz rendering
//	avail-solve -check model.json        # structural diagnosis
//	avail-solve -uncertainty 1000 m.json # sample declared uncertain ranges
//	avail-solve -example                 # print a sample model document
//	avail-solve -stats model.json        # append solver diagnostics (stderr)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/ctmc"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/uncertainty"
)

// overrides collects repeated -set name=value flags.
type overrides map[string]float64

func (o overrides) String() string { return fmt.Sprintf("%v", map[string]float64(o)) }

func (o overrides) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", v)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("value of %s: %w", name, err)
	}
	o[name] = f
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "avail-solve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("avail-solve", flag.ContinueOnError)
	ov := make(overrides)
	fs.Var(ov, "set", "override a model parameter, name=value (repeatable)")
	example := fs.Bool("example", false, "print a sample model document and exit")
	hierDoc := fs.Bool("hier", false, "treat the input as a hierarchical document")
	dot := fs.Bool("dot", false, "emit a Graphviz rendering of the (flat) model instead of solving")
	check := fs.Bool("check", false, "print a structural diagnosis of the (flat) model instead of solving")
	uncertaintyN := fs.Int("uncertainty", 0, "sample the document's declared uncertain ranges N times instead of a point solve")
	backendName := fs.String("backend", "", "solver backend: "+backend.Kinds+" (default ctmc; bayes requires a redundancy document)")
	seed := fs.Int64("seed", 2004, "seed for -uncertainty")
	stats := fs.Bool("stats", false, "print solver diagnostics (method, sweeps, residual, wall time) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stats {
		defer func() {
			fmt.Fprintln(os.Stderr, "\nEngine metrics:")
			_ = obs.Default().WriteSummary(os.Stderr)
		}()
	}
	if *example {
		return printExample()
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: avail-solve [-hier] [-dot] [-set name=value] model.json")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	if *hierDoc {
		if *uncertaintyN > 0 {
			d, err := spec.ParseHier(f)
			if err != nil {
				return err
			}
			res, err := d.RunUncertainty(uncertainty.Options{Samples: *uncertaintyN, Seed: *seed})
			if err != nil {
				return err
			}
			printUncertainty(d.Name, res)
			return nil
		}
		return solveHierarchy(f, ov)
	}
	kind, err := backend.ParseKind(*backendName)
	if err != nil {
		return err
	}
	doc, err := spec.Parse(f)
	if err != nil {
		return err
	}
	// Redundancy documents (and any explicit backend selection) go through
	// the multi-backend interface; the classic flat-CTMC path below keeps
	// its richer report (π vector, MTBF, equivalent rates).
	if doc.Redundancy != nil || kind != backend.KindCTMC {
		return solveRedundancy(doc, kind, ov)
	}
	if *uncertaintyN > 0 {
		res, err := doc.RunUncertainty(uncertainty.Options{Samples: *uncertaintyN, Seed: *seed})
		if err != nil {
			return err
		}
		printUncertainty(doc.Name, res)
		return nil
	}
	structure, err := doc.Compile(ov)
	if err != nil {
		return err
	}
	if *dot {
		return structure.WriteDOT(os.Stdout, doc.Name)
	}
	if *check {
		m := structure.Model()
		fmt.Printf("Model %s:\n%s", doc.Name, m.Diagnose().Summary(m))
		return nil
	}
	var diag ctmc.Diagnostics
	solveOpts := ctmc.SolveOptions{}
	if *stats {
		solveOpts.Diag = &diag
	}
	res, err := structure.Solve(solveOpts)
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "Solver diagnostics: %s\n", diag)
	}
	fmt.Printf("Model: %s (%d states, %d transitions)\n",
		doc.Name, structure.Model().NumStates(), structure.Model().NumTransitions())
	if doc.Description != "" {
		fmt.Println(doc.Description)
	}
	fmt.Printf("\nAvailability:       %.7f%%\n", res.Availability*100)
	fmt.Printf("Expected reward:    %.9f\n", res.ExpectedReward)
	fmt.Printf("Yearly downtime:    %.3f minutes\n", res.YearlyDowntimeMinutes)
	if res.FailureFrequency > 0 {
		fmt.Printf("Failure frequency:  %.3g per hour\n", res.FailureFrequency)
		fmt.Printf("MTBF:               %.1f hours\n", res.MTBFHours)
		fmt.Printf("Mean down duration: %.3f hours\n", res.MeanDownDurationHours)
	}
	fmt.Printf("Equivalent rates:   lambda %.6g/h, mu %.6g/h\n", res.LambdaEq, res.MuEq)
	fmt.Println("\nSteady-state probabilities:")
	m := structure.Model()
	for _, s := range m.States() {
		fmt.Printf("  %-16s %.9f\n", m.Name(s), res.Pi[s])
	}
	return nil
}

// printUncertainty reports an uncertainty analysis over a document's
// declared ranges.
func printUncertainty(name string, res *uncertainty.Result) {
	fmt.Printf("Uncertainty analysis of %s (%d samples):\n", name, res.Summary.N)
	fmt.Printf("  mean yearly downtime: %.3f minutes (s.d. %.3f)\n", res.Summary.Mean, res.Summary.StdDev)
	for _, c := range res.SortedConfidences() {
		ci := res.CIs[c]
		fmt.Printf("  %.0f%% interval: (%.3f, %.3f) minutes\n", c*100, ci.Low, ci.High)
	}
	fmt.Println("  variance drivers (Spearman):")
	corr := res.Correlations()
	names := make([]string, 0, len(corr))
	for nameP := range corr {
		names = append(names, nameP)
	}
	sort.Strings(names) // map order would shuffle the report run to run
	for _, nameP := range names {
		fmt.Printf("    %-18s %+.3f\n", nameP, corr[nameP])
	}
}

// solveRedundancy solves a document through the multi-backend interface
// and prints the backend-independent report.
func solveRedundancy(doc *spec.Document, kind backend.Kind, ov overrides) error {
	res, err := doc.SolveBackend(context.Background(), kind, ov)
	if err != nil {
		return err
	}
	sizeWhat := "CTMC states"
	if res.Backend == backend.KindBayes {
		sizeWhat = "BN variables"
	}
	fmt.Printf("Model: %s (backend %s, %d %s)\n", res.Name, res.Backend, res.Size, sizeWhat)
	if doc.Description != "" {
		fmt.Println(doc.Description)
	}
	if doc.Redundancy != nil {
		fmt.Printf("Redundancy structure: %d node(s), %d leaf instance(s)\n",
			len(doc.Redundancy.Nodes), doc.Redundancy.LeafCount())
	}
	fmt.Printf("\nAvailability:       %.9f\n", res.Availability)
	fmt.Printf("Yearly downtime:    %.4f minutes\n", res.YearlyDowntimeMinutes)
	return nil
}

// solveHierarchy parses and evaluates a hierarchical document, printing
// the result tree bottom-up.
func solveHierarchy(f *os.File, ov overrides) error {
	doc, err := spec.ParseHier(f)
	if err != nil {
		return err
	}
	ev, err := doc.Solve(context.Background(), ov)
	if err != nil {
		return err
	}
	fmt.Printf("Hierarchy: %s (root %q, %d model(s))\n", doc.Name, doc.Root, len(doc.Models))
	if doc.Description != "" {
		fmt.Println(doc.Description)
	}
	fmt.Println()
	printEvaluation(ev, 0)
	return nil
}

func printEvaluation(ev *spec.HierEvaluation, depth int) {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	fmt.Printf("%s%-20s availability %.9f  YD %8.4f min/yr  lambda_eq %.4g/h  mu_eq %.4g/h\n",
		indent, ev.Name, ev.Result.Availability, ev.Result.YearlyDowntimeMinutes,
		ev.Result.LambdaEq, ev.Result.MuEq)
	for _, child := range ev.Children {
		printEvaluation(child, depth+1)
	}
}

func printExample() error {
	doc := &spec.Document{
		Name:        "repairable-pair",
		Description: "Two-state repairable component: fails at La/hour, repairs at Mu/hour.",
		Parameters:  map[string]float64{"La": 0.00057, "Mu": 2},
		States: []spec.State{
			{Name: "Up", Reward: 1},
			{Name: "Down", Reward: 0},
		},
		Transitions: []spec.Transition{
			{From: "Up", To: "Down", Rate: "La"},
			{From: "Down", To: "Up", Rate: "Mu"},
		},
	}
	return doc.Encode(os.Stdout)
}
