// Command jsas-longevity runs simulated longevity (stability) tests,
// reproducing the paper's §3 measurement campaign: 7-day benchmark runs at
// a 60–70% load factor processing ≈ 7 million requests, plus the 24-day
// sanity run whose zero-failure observation yields the Equation (2)
// failure-rate bounds (λ ≤ 1/16 days at 95%, ≤ 1/9 days at 99.5%).
//
// Usage:
//
//	jsas-longevity [-days 7] [-profile marketplace|nile] [-seed 1]
//	               [-organic] [-replicas 1] [-parallel 0]
//	               [-print-config] [-trace out.jsonl]
//	               [-progress] [-timeseries out.json] [-window 6h]
//
// With -progress a live status line (simulated chunks completed, rate,
// ETA — and for a replicated series the running mean availability) goes
// to stderr once per second; stdout stays byte-identical to a run
// without the flag. With -timeseries the sim-time availability series
// (fixed -window windows of up/down time and outage counts) is written
// as JSON, deterministically for every -replicas/-parallel setting.
//
// With -replicas R the tool runs a series of R independent longevity runs
// (seeds seed..seed+R-1, concurrently up to -parallel workers, as the
// paper pooled "multiple 7-day duration runs") and reports the pooled
// Equation (2) bounds; the output is identical for every -parallel value,
// and -replicas 1 is exactly the single serial run.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/estimate"
	"repro/internal/jsas"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// Ctrl-C / SIGTERM stops the simulation at chunk granularity; a
	// replicated series still pools and reports its completed runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsas-longevity:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jsas-longevity", flag.ContinueOnError)
	days := fs.Int("days", 7, "run length in days")
	profileName := fs.String("profile", "marketplace", "benchmark profile: marketplace or nile")
	seed := fs.Int64("seed", 1, "random seed")
	organic := fs.Bool("organic", false, "enable organic failures at the model's rates")
	replicas := fs.Int("replicas", 1, "run a series of this many independent longevity runs and pool the exposure")
	parallel := fs.Int("parallel", 0, "max runs executing concurrently (0 = one worker per run)")
	printConfig := fs.Bool("print-config", false, "print the Table 1 test environment and exit")
	traceOut := fs.String("trace", "", "record the run as a JSONL flight-recorder trace at this path")
	showProgress := fs.Bool("progress", false, "print a live status line (chunks, rate, ETA) to stderr")
	tsOut := fs.String("timeseries", "", "write the sim-time availability time series as JSON to this path")
	window := fs.Duration("window", 6*time.Hour, "sim-time window width for -timeseries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printConfig {
		return renderTable1(os.Stdout)
	}
	var profile workload.Profile
	switch *profileName {
	case "marketplace":
		profile = workload.Marketplace()
	case "nile":
		profile = workload.NileBookstore()
	default:
		return fmt.Errorf("profile %q: want marketplace or nile", *profileName)
	}
	var (
		rec       *trace.Recorder
		traceFile *os.File
		traceBuf  *bufio.Writer
	)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		traceBuf = bufio.NewWriter(f)
		rec = trace.New(trace.Config{Capacity: trace.Unbounded, Sink: traceBuf})
	}
	runOpts := workload.RunOptions{
		Config:          jsas.Config1,
		Params:          jsas.DefaultParams(),
		Profile:         profile,
		Duration:        time.Duration(*days) * 24 * time.Hour,
		Seed:            *seed,
		OrganicFailures: *organic,
		Trace:           rec,
	}
	var tracker *progress.Tracker
	if *showProgress {
		popts := []progress.Option{progress.WithUnit("chunks")}
		if *replicas > 1 {
			popts = append(popts, progress.WithStat("availability"))
		}
		tracker = progress.New(int64(*replicas)*workload.ProgressChunks(runOpts.Duration), popts...)
		runOpts.Progress = tracker
	}
	var series *testbed.TimeSeries
	if *tsOut != "" {
		series = testbed.NewTimeSeries(*window, 0)
		runOpts.TimeSeries = series
	}
	reporter := progress.NewReporter(tracker, os.Stderr, "longevity", time.Second)
	reporter.Start()
	var runErr error
	if *replicas > 1 {
		// A partial series still reports (and still flushes the trace
		// below); runErr makes the exit status reflect the failure.
		runErr = runSeries(ctx, runOpts, *replicas, *parallel, *days, reporter, *tsOut, series)
	} else {
		res, err := workload.Run(ctx, runOpts)
		reporter.Stop()
		if err != nil {
			return err
		}
		if err := flushTimeSeries(*tsOut, series); err != nil {
			return err
		}
		fmt.Printf("Longevity run: %s on %s for %d day(s) (load factor %.0f%%)\n\n",
			profile.Name, res.Config, *days, profile.LoadFactor*100)
		fmt.Printf("Requests served: %.0f\n", res.RequestsServed)
		fmt.Printf("Requests failed: %.0f\n", res.RequestsFailed)
		fmt.Printf("Observed availability: %.6f%%\n", res.Availability*100)
		fmt.Printf("AS instance failures: %d   System outages: %d\n",
			res.ASInstanceFailures, res.SystemOutages)
		fmt.Printf("\nEquation (2) failure-rate upper bounds (exposure %.0f instance-days, %d failure(s)):\n",
			res.InstanceExposure.Hours()/24, res.ASInstanceFailures)
		printRateBounds(res.RateBounds)
	}
	if rec != nil {
		if err := rec.SinkErr(); err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		if err := traceBuf.Flush(); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		spans := rec.Spans()
		fmt.Printf("\nFlight-recorder trace: %d spans written to %s\n\n", len(spans), *traceOut)
		if err := trace.AnalyzeOutages(spans).WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return runErr
}

// runSeries executes and reports a replicated longevity series: replicas
// independent runs pooled for the Equation (2) bound, as the paper pooled
// its repeated 7-day runs.
func runSeries(ctx context.Context, runOpts workload.RunOptions, replicas, parallel, days int,
	reporter *progress.Reporter, tsOut string, ts *testbed.TimeSeries) error {
	series, runErr := workload.RunSeriesWith(ctx, workload.SeriesOptions{
		Run:         runOpts,
		Runs:        replicas,
		Parallelism: parallel,
	})
	reporter.Stop()
	if runErr == nil {
		if err := flushTimeSeries(tsOut, ts); err != nil {
			return err
		}
	}
	if runErr != nil {
		if series == nil || len(series.Runs) == 0 {
			return runErr
		}
		fmt.Fprintf(os.Stderr, "jsas-longevity: warning: %v\n", runErr)
		fmt.Printf("Series incomplete: pooling the %d completed run(s).\n\n", len(series.Runs))
	}
	fmt.Printf("Longevity series: %s on %s, %d × %d-day runs (load factor %.0f%%)\n\n",
		runOpts.Profile.Name, runOpts.Config, replicas, days, runOpts.Profile.LoadFactor*100)
	totalOutages := 0
	for i, r := range series.Runs {
		fmt.Printf("  run %d: %.0f requests, availability %.6f%%, %d AS failure(s), %d outage(s)\n",
			i+1, r.RequestsServed, r.Availability*100, r.ASInstanceFailures, r.SystemOutages)
		totalOutages += r.SystemOutages
	}
	fmt.Printf("\nPooled: %.0f requests, %d AS instance failure(s), %d system outage(s)\n",
		series.TotalRequests, series.TotalFailures, totalOutages)
	fmt.Printf("\nEquation (2) failure-rate upper bounds (pooled exposure %.0f instance-days, %d failure(s)):\n",
		series.TotalExposure.Hours()/24, series.TotalFailures)
	printRateBounds(series.PooledBounds)
	return runErr
}

func printRateBounds(bounds []estimate.FailureRateBound) {
	for _, b := range bounds {
		perDay := b.PerHour * 24
		fmt.Printf("  at %.1f%% confidence: λ ≤ %.4f/day (1 per %.1f days; %.1f/year)\n",
			b.Confidence*100, perDay, 1/perDay, b.PerYear)
	}
}

// renderTable1 prints the paper's Table 1 test environment layout.
func renderTable1(w *os.File) error {
	t := report.NewTable("Table 1. Test Environment (simulated)", "Layer", "Contents")
	t.AddRow("Load balancing", "Load balancer plugin, sticky round-robin, 1-min health checks")
	t.AddRow("Application", "AS Instance 1, AS Instance 2 (J2EE Web App / Nile Bookstore)")
	t.AddRow("Session store", "HADB Pair 1 (2 nodes), HADB Pair 2 (2 nodes), 2 spares")
	t.AddRow("Data services", "Oracle database and directory server (out of model scope)")
	t.AddRow("Platform", "Simulated E450-class hosts (discrete-event testbed)")
	return t.Render(w)
}

// flushTimeSeries writes the windowed availability series as JSON to
// path, with a stderr note so stdout stays byte-identical.
func flushTimeSeries(path string, ts *testbed.TimeSeries) error {
	if path == "" || ts == nil {
		return nil
	}
	ts.PublishObs() // final merged series → obs gauges (-stats summary)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "longevity: availability time series (%d windows) written to %s\n",
		len(ts.Windows()), path)
	return nil
}
