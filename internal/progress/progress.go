// Package progress is the engine's live-telemetry primitive: an atomic,
// allocation-free Tracker counts task completions (injections, samples,
// sweep points, simulation chunks) as a long-running driver works, and a
// Snapshot turns the counts into rate, ETA, and a running-statistic
// summary without perturbing the hot path. A Reporter renders periodic
// status lines to a side channel (stderr for the CLIs), keeping the
// primary output byte-identical to an untracked run; a Registry exposes
// in-flight runs to the HTTP API (GET /v1/runs).
//
// The source paper's campaigns ran for weeks with operators watching the
// rigs; the simulated campaigns run for seconds to minutes, but a 100k-
// injection campaign or a multi-year longevity series is still too long
// to run dark. The design constraint is the DES kernel's speed: when
// tracking is disabled every driver pays a single predictable nil-check
// branch, and when enabled the per-task cost is a handful of atomic adds.
package progress

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// z95 is the standard normal quantile for a two-sided 95% interval, used
// for the running-statistic half-width (the same normal approximation the
// paper's Equation (1)/(2) bounds converge to at campaign sample sizes).
const z95 = 1.959963984540054

// Tracker counts completed tasks toward a known total. All write-side
// methods (Done, Add, Observe, ObserveSum) are lock-free atomics and
// never allocate, so drivers can call them per injection / per sample /
// per chunk without measurable overhead; Snapshot (read side) takes a
// small mutex to smooth the rate estimate and is meant to be called at
// human frequencies.
//
// The zero Tracker is not useful; construct with New. A nil *Tracker is
// safe: every method is a no-op, so call sites thread `opts.Progress`
// through unconditionally and the disabled path stays one branch.
type Tracker struct {
	total     atomic.Int64
	completed atomic.Int64

	// Running-statistic accumulator: count, sum, and sum of squares of
	// observed values (float64 bits CAS-updated). The drivers decide what
	// a value is — recovery success (0/1) for campaigns, run availability
	// for longevity series, sampled downtime for Monte-Carlo runs.
	statCount atomic.Int64
	statSum   atomic.Uint64
	statSumSq atomic.Uint64

	statName string
	unit     string
	clock    func() time.Time
	start    time.Time

	// Snapshot-side smoothing state. Guarded by mu; only read-side calls
	// touch it.
	mu            sync.Mutex
	lastAt        time.Time
	lastCompleted int64
	ewmaRate      float64
}

// Option customizes a Tracker.
type Option func(*Tracker)

// WithStat names the running statistic reported by Observe (e.g.
// "recovered", "availability", "mean-YD-min"). Without it, snapshots
// carry no statistic even if Observe is called.
func WithStat(name string) Option { return func(t *Tracker) { t.statName = name } }

// WithUnit names the task unit for rendered rates (default "items": a
// campaign tracker uses "inj", a Monte-Carlo tracker "samples").
func WithUnit(unit string) Option { return func(t *Tracker) { t.unit = unit } }

// WithClock substitutes the time source (tests).
func WithClock(clock func() time.Time) Option { return func(t *Tracker) { t.clock = clock } }

// New constructs a tracker expecting total task completions (0 = unknown
// total: rates still work, ETA does not).
func New(total int64, opts ...Option) *Tracker {
	t := &Tracker{unit: "items", clock: time.Now}
	for _, o := range opts {
		o(t)
	}
	t.total.Store(total)
	t.start = t.clock()
	t.lastAt = t.start
	return t
}

// Done records one completed task. Safe for concurrent use; no-op on nil.
func (t *Tracker) Done() {
	if t != nil {
		t.completed.Add(1)
	}
}

// Add records n completed tasks at once.
func (t *Tracker) Add(n int64) {
	if t != nil && n > 0 {
		t.completed.Add(n)
	}
}

// Observe feeds one value into the running-statistic accumulator
// (mean ± 95% half-width in snapshots). Safe for concurrent use.
func (t *Tracker) Observe(v float64) {
	if t == nil {
		return
	}
	t.statCount.Add(1)
	addFloat(&t.statSum, v)
	addFloat(&t.statSumSq, v*v)
}

// ObserveSum feeds n values at once, given their sum and sum of squares.
// Drivers that batch integer-valued observations (0/1 verdicts) get the
// same snapshot, bit for bit, as n Observe calls, while the sums stay
// below 2^53. Safe for concurrent use.
func (t *Tracker) ObserveSum(n int64, sum, sumSq float64) {
	if t == nil || n <= 0 {
		return
	}
	t.statCount.Add(n)
	addFloat(&t.statSum, sum)
	addFloat(&t.statSumSq, sumSq)
}

// addFloat CAS-accumulates a float64 stored as bits (the obs.Gauge idiom).
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Completed returns the completion count (0 on nil).
func (t *Tracker) Completed() int64 {
	if t == nil {
		return 0
	}
	return t.completed.Load()
}

// Total returns the expected task total (0 = unknown).
func (t *Tracker) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// SetTotal revises the expected total (drivers that discover work late).
func (t *Tracker) SetTotal(total int64) {
	if t != nil {
		t.total.Store(total)
	}
}

// Unit returns the task unit label.
func (t *Tracker) Unit() string {
	if t == nil {
		return ""
	}
	return t.unit
}

// Snapshot is a point-in-time view of a tracker.
type Snapshot struct {
	Completed int64
	Total     int64
	Elapsed   time.Duration
	// Rate is the smoothed completion rate in tasks/second (an EWMA over
	// snapshot intervals, falling back to the cumulative rate on the
	// first snapshot). 0 until at least one task completed.
	Rate float64
	// ETA estimates the remaining wall time at the smoothed rate. ok
	// (ETAKnown) is false when the total or rate is unknown.
	ETA      time.Duration
	ETAKnown bool
	// Running statistic (mean ± half-width at 95%, over StatN values).
	// StatName is empty when the tracker has no statistic configured.
	StatName      string
	StatMean      float64
	StatHalfWidth float64
	StatN         int64
	Unit          string
}

// Fraction returns completed/total in [0,1] (0 when the total is unknown).
func (s Snapshot) Fraction() float64 {
	if s.Total <= 0 {
		return 0
	}
	f := float64(s.Completed) / float64(s.Total)
	if f > 1 {
		f = 1
	}
	return f
}

// ewmaAlpha weights the newest interval rate; snapshots arrive at human
// cadence (~1 s), so 0.5 settles within a few ticks while damping the
// burstiness of chunked simulation advances.
const ewmaAlpha = 0.5

// stallDecayEvents controls when an idle gap starts decaying the rate:
// once the gap is long enough that stallDecayEvents completions were
// expected at the current rate and none arrived, the rate is capped at
// stallDecayEvents/gap — the largest rate plausibly consistent with the
// silence. Below that threshold the cap is above the current rate and
// nothing happens, so ordinary gaps between chunked completions (and
// rapid /v1/runs polls) never perturb the estimate. The cap depends only
// on the gap length, not on how often Snapshot is called.
const stallDecayEvents = 4

// Snapshot captures the tracker state, updating the smoothed rate. The
// zero Snapshot is returned for a nil tracker.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	now := t.clock()
	completed := t.completed.Load()

	t.mu.Lock()
	elapsed := now.Sub(t.start)
	dt := now.Sub(t.lastAt)
	if dt > 0 && completed > t.lastCompleted {
		inst := float64(completed-t.lastCompleted) / dt.Seconds()
		if t.ewmaRate == 0 {
			t.ewmaRate = inst
		} else {
			t.ewmaRate = ewmaAlpha*inst + (1-ewmaAlpha)*t.ewmaRate
		}
		t.lastAt = now
		t.lastCompleted = completed
	} else if dt > 0 && completed == t.lastCompleted && t.ewmaRate > 0 {
		// Stalled: nothing completed since lastAt. Without decay the
		// tracker would report its last good rate — and a static, ever-
		// wrong ETA — forever. Cap the rate at what the silence supports;
		// lastAt is deliberately left alone, so the idle gap keeps
		// widening and the cap keeps tightening until completions resume
		// (which re-smooths upward from the decayed value).
		if cap := stallDecayEvents / dt.Seconds(); cap < t.ewmaRate {
			t.ewmaRate = cap
		}
	} else if t.ewmaRate == 0 && completed > 0 && elapsed > 0 {
		t.ewmaRate = float64(completed) / elapsed.Seconds()
	}
	rate := t.ewmaRate
	t.mu.Unlock()

	snap := Snapshot{
		Completed: completed,
		Total:     t.total.Load(),
		Elapsed:   elapsed,
		Rate:      rate,
		StatName:  t.statName,
		Unit:      t.unit,
	}
	if snap.Total > 0 && rate > 0 && completed < snap.Total {
		snap.ETA = time.Duration(float64(snap.Total-completed) / rate * float64(time.Second))
		snap.ETAKnown = true
	} else if snap.Total > 0 && completed >= snap.Total {
		snap.ETA = 0
		snap.ETAKnown = true
	}
	if t.statName != "" {
		n := t.statCount.Load()
		snap.StatN = n
		if n > 0 {
			sum := math.Float64frombits(t.statSum.Load())
			sumSq := math.Float64frombits(t.statSumSq.Load())
			mean := sum / float64(n)
			snap.StatMean = mean
			if n > 1 {
				variance := (sumSq - float64(n)*mean*mean) / float64(n-1)
				if variance > 0 {
					snap.StatHalfWidth = z95 * math.Sqrt(variance/float64(n))
				}
			}
		}
	}
	return snap
}

// String renders the snapshot as one status line:
//
//	12345/100000 (12.3%)  3456.7 inj/s  ETA 25s  recovered=0.999870±0.000210
func (s Snapshot) String() string {
	unit := s.Unit
	if unit == "" {
		unit = "items"
	}
	var b []byte
	if s.Total > 0 {
		b = fmt.Appendf(b, "%d/%d (%.1f%%)", s.Completed, s.Total, s.Fraction()*100)
	} else {
		b = fmt.Appendf(b, "%d", s.Completed)
	}
	if s.Rate > 0 {
		b = fmt.Appendf(b, "  %.1f %s/s", s.Rate, unit)
	}
	if s.ETAKnown {
		b = fmt.Appendf(b, "  ETA %s", formatETA(s.ETA))
	}
	if s.StatName != "" && s.StatN > 0 {
		b = fmt.Appendf(b, "  %s=%.6f±%.6f", s.StatName, s.StatMean, s.StatHalfWidth)
	}
	return string(b)
}

// formatETA rounds an ETA to a human scale: sub-minute to the second,
// sub-hour to the minute boundary with seconds, beyond to minutes.
func formatETA(d time.Duration) string {
	switch {
	case d < time.Minute:
		return d.Round(time.Second).String()
	case d < time.Hour:
		return d.Round(time.Second).String()
	default:
		return d.Round(time.Minute).String()
	}
}

// Reporter renders a tracker to a writer on a fixed interval from its own
// goroutine. The writer is typically os.Stderr: progress is operator
// telemetry, and the data channel (stdout) must stay byte-identical with
// and without it.
type Reporter struct {
	t        *Tracker
	w        io.Writer
	label    string
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// NewReporter constructs a reporter printing "label: <snapshot>" lines
// every interval (min 100 ms; default 1 s for interval <= 0). A nil
// tracker yields a reporter whose Start and Stop are no-ops.
func NewReporter(t *Tracker, w io.Writer, label string, interval time.Duration) *Reporter {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	return &Reporter{t: t, w: w, label: label, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the reporting goroutine. Calling Start twice panics.
func (r *Reporter) Start() {
	if r.t == nil || r.w == nil {
		return
	}
	if r.started {
		panic("progress: Reporter started twice")
	}
	r.started = true
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(r.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				r.emit()
			case <-r.stop:
				return
			}
		}
	}()
}

// Stop halts the reporter and prints one final status line, so short runs
// that finish inside the first interval still report their outcome.
func (r *Reporter) Stop() {
	if r.t == nil || r.w == nil || !r.started {
		return
	}
	close(r.stop)
	<-r.done
	r.emit()
}

func (r *Reporter) emit() {
	snap := r.t.Snapshot()
	fmt.Fprintf(r.w, "%s: %s\n", r.label, snap)
}
