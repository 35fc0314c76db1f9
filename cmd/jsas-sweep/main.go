// Command jsas-sweep reproduces the paper's Figures 5 and 6: the
// parametric sensitivity of system availability to the AS node HW/OS
// failure recovery time (Tstart_long), swept from 0.5 to 3 hours.
//
// Usage:
//
//	jsas-sweep [-config 1|2] [-from 0.5] [-to 3] [-steps 10] [-parallel N]
//	           [-backend ctmc|bayes] [-csv] [-stats] [-progress] [-beta 0]
//	jsas-sweep -replication [-from 10] [-to 100] [-steps 9] [-quorum 0.9]
//	           [-backend bayes]
//
// With -progress a live status line (sweep points completed, rate, ETA)
// is printed to stderr once per second; stdout stays byte-identical to a
// run without the flag.
//
// -replication sweeps the replica count of a k-of-n AS cluster instead of
// a model parameter — the scenario only the bayes backend can solve at
// scale (the flat CTMC cross-product is capped near 12 instances).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/jsas"
	"repro/internal/obs"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/sensitivity"
)

func main() {
	// Ctrl-C / SIGTERM cancels the sweep at sweep-point granularity.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsas-sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jsas-sweep", flag.ContinueOnError)
	configNo := fs.Int("config", 1, "paper configuration to sweep (1 or 2)")
	param := fs.String("param", jsas.ParamTstartLong,
		"parameter to sweep: Tstart_long, La_as, La_hadb, La_os, La_hw, or FIR")
	from := fs.Float64("from", 0.5, "sweep start (hours for Tstart_long, per-year for rates, fraction for FIR)")
	to := fs.Float64("to", 3.0, "sweep end")
	steps := fs.Int("steps", 10, "number of sweep intervals")
	parallel := fs.Int("parallel", 1, "worker goroutines evaluating sweep points (results are identical at any setting)")
	backendName := fs.String("backend", "", "solver backend: "+backend.Kinds+" (default ctmc)")
	replication := fs.Bool("replication", false, "sweep the k-of-n AS cluster replica count instead of a model parameter (-from/-to are instance counts)")
	quorumFrac := fs.Float64("quorum", 0.9, "required up-fraction for -replication (k = ceil(quorum*n))")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	stats := fs.Bool("stats", false, "print engine metrics (solves, sweeps, latency) to stderr after the sweep")
	showProgress := fs.Bool("progress", false, "print a live status line (points, rate, ETA) to stderr")
	beta := fs.Float64("beta", 0, "beta-factor common-cause fraction in [0,1) (0 = paper model)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := jsas.DefaultParams()
	params.Beta = *beta
	if *stats {
		defer func() {
			fmt.Fprintln(os.Stderr, "\nEngine metrics:")
			_ = obs.Default().WriteSummary(os.Stderr)
		}()
	}
	kind, err := backend.ParseKind(*backendName)
	if err != nil {
		return err
	}
	if *replication {
		return runReplicationSweep(ctx, params, *from, *to, *steps, *quorumFrac, kind, *csv)
	}
	var cfg jsas.Config
	switch *configNo {
	case 1:
		cfg = jsas.Config1
	case 2:
		cfg = jsas.Config2
	default:
		return fmt.Errorf("config %d: want 1 or 2", *configNo)
	}
	var tracker *progress.Tracker
	if *showProgress {
		tracker = progress.New(int64(*steps)+1, progress.WithUnit("points"))
	}
	reporter := progress.NewReporter(tracker, os.Stderr, "sweep", time.Second)
	reporter.Start()
	points, err := sensitivity.SweepWith(ctx, *from, *to, *steps,
		jsas.SweepSolverBackend(cfg, params, *param, kind),
		sensitivity.SweepOptions{Parallelism: *parallel, Progress: tracker})
	reporter.Stop()
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Sensitivity of Availability to %s (Config %d)", *param, *configNo)
	if *param == jsas.ParamTstartLong {
		fig := 5
		if *configNo == 2 {
			fig = 6
		}
		title = fmt.Sprintf("Figure %d. Sensitivity of Availability to HW/OS Failure Recovery Time (Config %d)", fig, *configNo)
	}
	t := report.NewTable(title, *param, "Availability", "Yearly Downtime")
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%.2f", pt.Value),
			fmt.Sprintf("%.7f%%", pt.Availability*100),
			report.Minutes(pt.YearlyDowntimeMinutes),
		)
	}
	if *csv {
		if err := t.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if cross, ok := sensitivity.CrossingBelow(points, 0.99999); ok {
		fmt.Printf("\nFive-nines availability is lost at Tstart_long ≈ %.2f hours.\n", cross)
	} else {
		fmt.Printf("\nFive-nines availability holds across the whole sweep (max delta %.3g).\n",
			sensitivity.MaxDelta(points))
	}
	return nil
}

// runReplicationSweep evaluates k-of-n cluster availability across replica
// counts: -from/-to are instance counts and -steps the stride count.
func runReplicationSweep(ctx context.Context, params jsas.Params, from, to float64, steps int, quorumFrac float64, kind backend.Kind, csv bool) error {
	nFrom, nTo := int(from), int(to)
	step := 1
	if steps > 0 && nTo > nFrom {
		if step = (nTo - nFrom) / steps; step < 1 {
			step = 1
		}
	}
	points, err := jsas.ReplicationSweep(ctx, params, nFrom, nTo, step, quorumFrac, kind)
	if err != nil {
		return err
	}
	sizeWhat := "CTMC states"
	if kind == backend.KindBayes {
		sizeWhat = "BN variables"
	}
	t := report.NewTable(
		fmt.Sprintf("Replication-factor sweep: k-of-n AS cluster availability (backend %s, quorum %.0f%%)", kind, quorumFrac*100),
		"Instances", "Quorum", "Availability", "Yearly Downtime", sizeWhat)
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%d", pt.Instances),
			fmt.Sprintf("%d", pt.Quorum),
			fmt.Sprintf("%.9f", pt.Availability),
			report.Minutes(pt.YearlyDowntimeMinutes),
			fmt.Sprintf("%d", pt.Size),
		)
	}
	if csv {
		return t.WriteCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}
