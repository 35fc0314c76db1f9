// document-driven runs the complete paper workflow from the shipped JSON
// model documents alone — no Go model code. It loads the Figure 2/3/4
// hierarchy from models/jsas-config1.json, solves it, rescales it to
// Config 2 with a parameter override, and runs the §7 uncertainty analysis
// over the ranges declared inside the document.
//
// Run from the repository root with:
//
//	go run ./examples/document-driven
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/spec"
	"repro/internal/uncertainty"
)

func main() {
	f, err := os.Open("models/jsas-config1.json")
	if err != nil {
		log.Fatalf("open document (run from the repository root): %v", err)
	}
	defer f.Close()
	doc, err := spec.ParseHier(f)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}

	// Point solve: the paper's Config 1.
	ev, err := doc.Solve(nil)
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	fmt.Printf("%s: availability %.5f%%, downtime %.2f min/yr\n",
		doc.Name, ev.Result.Availability*100, ev.Result.YearlyDowntimeMinutes)
	for _, child := range ev.Children {
		fmt.Printf("  %-16s lambda_eq %.3g/h  mu_eq %.3g/h\n",
			child.Name, child.Result.LambdaEq, child.Result.MuEq)
	}

	// Same document, rescaled toward Config 2 by overriding N_pair.
	ev4, err := doc.Solve(map[string]float64{"N_pair": 4})
	if err != nil {
		log.Fatalf("solve N_pair=4: %v", err)
	}
	fmt.Printf("\nwith N_pair=4: availability %.5f%%, downtime %.2f min/yr\n",
		ev4.Result.Availability*100, ev4.Result.YearlyDowntimeMinutes)

	// Uncertainty analysis over the ranges declared in the document
	// itself (the paper's §7 parameter table travels with the model).
	res, err := doc.RunUncertainty(uncertainty.Options{Samples: 1000, Seed: 2004, Parallelism: 4})
	if err != nil {
		log.Fatalf("uncertainty: %v", err)
	}
	ci := res.CIs[0.80]
	fmt.Printf("\nuncertainty (%d samples): mean %.2f min/yr, 80%% CI (%.2f, %.2f)\n",
		res.Summary.N, res.Summary.Mean, ci.Low, ci.High)
	fmt.Println("variance drivers:")
	corr := res.Correlations()
	names := make([]string, 0, len(corr))
	for name := range corr {
		names = append(names, name)
	}
	sort.Strings(names) // map order would shuffle the output run to run
	for _, name := range names {
		fmt.Printf("  %-16s %+.3f\n", name, corr[name])
	}
}
