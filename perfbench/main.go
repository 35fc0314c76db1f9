// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks the outputs, and prints every metric by name
// with its unit and sample count. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json (-trace 0) or its
// per-layer metrics (-trace 1). See README.md for what each workload
// loads and what each metric means. Run it through run.sh, which builds
// this command and the server under test from source first.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	// n is the number of samples behind a timing; 0 for counts, ratios
	// and differences.
	n int
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// problems lists the first failed output checks and nProblems counts
	// all of them; any makes the run incorrect.
	problems  []string
	nProblems int
	// e2e holds the end-to-end metrics under their BENCHMARK.json names.
	e2e map[string]metric
	// detail holds the end-to-end numbers under the workload's own
	// names, printed for reading.
	detail []metric
	// layers holds the per-layer metrics of a traced run.
	layers []metric
}

const maxProblems = 20

func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	if o.nProblems < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	o.nProblems++
}

func (o *outcome) addDetail(ms ...metric) { o.detail = append(o.detail, ms...) }
func (o *outcome) addLayer(ms ...metric)  { o.layers = append(o.layers, ms...) }

// env carries one run's settings.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	server  string // avail-server binary
	out     string // directory for span files
	w       io.Writer
}

// End-to-end metric names, shared by every workload (README.md maps
// each to the workload's own number).
const (
	mSetup  = "setup_s"
	mRSS    = "peak_rss_mb"
	mOpP50  = "op_ms.p50"
	mOpTail = "op_ms.tail"
	mOp2P50 = "op2_ms.p50"
	unitMS  = "ms"
	unitUS  = "us"
	unitNS  = "ns"
	unitMB  = "MB"
	unitS   = "s"
	unitN   = "count"
	unitB   = "B"
	unitX   = "ratio"
	unitPct = "%"
)

var endToEnd = []string{mSetup, mRSS, mOpP50, mOpTail, mOp2P50}

var workloads = map[string]func(*env) (*outcome, error){
	"paper-analytic": runAnalytic,
	"campaign":       runCampaign,
	"serve-mix":      runServeMix,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-analytic, campaign or serve-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	server := fs.String("server", "", "avail-server binary (serve-mix and traced runs)")
	out := fs.String("out", ".bench_build/perfbench", "directory for traced-run span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0|1")
	}
	if *server == "" {
		return errors.New("-server is required")
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, server: *server, out: *out, w: w}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d\n", *name, *seed, *seconds, *traced)
	o, err := wl(e)
	if err != nil {
		return err
	}
	return finish(w, e, o)
}

// finish prints the human-readable metrics and the closing JSON line.
func finish(w io.Writer, e *env, o *outcome) error {
	for _, p := range o.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	if o.nProblems > len(o.problems) {
		fmt.Fprintf(w, "CHECK FAILED: %d more\n", o.nProblems-len(o.problems))
	}
	fmt.Fprintf(w, "attempted %d  failed %d  failed_ratio %.6f\n",
		o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	var report []metric
	var names []string
	if e.traced {
		writeMetrics(w, "per-layer metrics", o.layers)
		report = o.layers
		names = perLayer
	} else {
		writeMetrics(w, "end-to-end metrics", o.detail)
		for _, n := range endToEnd {
			report = append(report, o.e2e[n])
		}
		writeMetrics(w, "BENCHMARK.json metrics", report)
		names = endToEnd
	}
	have := map[string]metric{}
	for _, m := range report {
		if m.name != "" {
			have[m.name] = m
		}
	}
	metrics := map[string]any{}
	for _, n := range names {
		m, ok := have[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		metrics[n] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.nProblems == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if o.nProblems > 0 {
		return errIncorrect
	}
	return nil
}

func writeMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = "n=" + strconv.Itoa(m.n)
		}
		fmt.Fprintf(w, "  %-42s %16.6f %-6s %s\n", m.name, m.value, m.unit, n)
	}
}

// procFile names a file under /proc for a process; pid 0 means this
// process.
func procFile(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := procFile(pid, "status")
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

// setupMetric reports the median of repeated set-ups.
func setupMetric(ds []time.Duration) metric {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return metric{mSetup, median(xs), unitS, len(xs)}
}

// timing is a named sample of durations in milliseconds.
type timing struct {
	name string
	xs   []float64
}

func (t *timing) add(d time.Duration) { t.xs = append(t.xs, ms(d)) }

// p50 and tail report the sample as metrics named after the timing.
func (t *timing) p50() metric { return metric{t.name + ".p50", median(t.xs), unitMS, len(t.xs)} }

func (t *timing) tail(want int) metric {
	p := tailFor(want, len(t.xs))
	return metric{t.name + "." + pname(p), percentile(t.xs, p), unitMS, len(t.xs)}
}

// rename copies a metric under a BENCHMARK.json name.
func rename(m metric, name string) metric { m.name = name; return m }

// rssBlock is the length of one peak-RSS block.
const rssBlock = time.Second

// rssSampler records a process's peak resident set per rssBlock: at the
// end of each block it reads VmHWM and resets it through clear_refs. A
// single collection that overshoots then moves one block's peak instead
// of the run's, and peak_rss_mb is the upper quartile of the blocks.
type rssSampler struct {
	pid   int
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// resetPeak sets a process's VmHWM back to its current resident set.
func resetPeak(pid int) error {
	return os.WriteFile(procFile(pid, "clear_refs"), []byte("5"), 0)
}

func startRSSSampler(pid int) (*rssSampler, error) {
	if err := resetPeak(pid); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	rs := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		t := time.NewTicker(rssBlock)
		defer t.Stop()
		for {
			select {
			case <-rs.stop:
				rs.sample()
				return
			case <-t.C:
				rs.sample()
			}
		}
	}()
	return rs, nil
}

func (rs *rssSampler) sample() {
	mb, err := peakRSSMB(rs.pid)
	if err == nil {
		err = resetPeak(rs.pid)
	}
	if err != nil {
		rs.err = err
		return
	}
	rs.peaks = append(rs.peaks, mb)
}

// finish stops the sampler and reports peak_rss_mb.
func (rs *rssSampler) finish() (metric, error) {
	close(rs.stop)
	<-rs.done
	if rs.err != nil {
		return metric{}, fmt.Errorf("peak RSS: %w", rs.err)
	}
	return metric{mRSS, percentile(rs.peaks, 750), unitMB, len(rs.peaks)}, nil
}
