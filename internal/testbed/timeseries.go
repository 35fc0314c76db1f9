package testbed

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// TimeSeries is a windowed availability recorder: it consumes the
// cluster's Observer event stream and accumulates per-window up/down
// time, outage counts, and per-failure-mode downtime over fixed-width
// sim-time windows. This is the paper's measurement posture — availability
// as it evolves over the observation window, decomposed by outage cause —
// rather than a single end-of-run aggregate.
//
// Windows live in a bounded ring: when a run outlasts the retention cap,
// the oldest windows are folded into an Evicted aggregate in O(1), so the
// recorder's memory is fixed no matter how long the simulated horizon is.
// Feed it events via Observe (compose with a tracer using MultiObserver),
// close the final partial window with FinishAt, and merge per-replica
// series in ascending replica order with Merge — the same deterministic
// convention as MergeStats and trace.Recorder.Import.
type TimeSeries struct {
	width time.Duration
	cap   int

	// ring of retained windows: buf[(head+i)%cap] for i in [0,count).
	// Window indices are contiguous — sim time only moves forward — so
	// the ring holds [firstIdx, firstIdx+count).
	buf   []Window
	head  int
	count int

	// Evicted aggregates windows dropped from the ring.
	evicted WindowAggregate

	// Sweep state: how far accounting has advanced and whether the
	// system is currently down (plus outage-cause attribution).
	st tsState

	// Fast-path cache: the window containing st.at and its end time.
	// Nearly every event lands in the window the previous event did, so
	// advance charges the span with one comparison instead of the
	// division-and-modulo ring lookup. nil whenever the cache is cold.
	cur    *Window
	curEnd time.Duration
}

// tsState is the recorder's event-sweep state.
type tsState struct {
	at   time.Duration // time accounted so far
	down bool          // system currently down
	// cause of the open outage (zero values = unattributed).
	causeComp  Component
	causeKind  FailureKind
	causeClass Cause
	// last component failure seen, pending outage attribution.
	lastComp Component
	lastKind FailureKind
	haveLast bool
}

// Window is one fixed-width sim-time bucket of availability accounting.
// Index is the absolute window number (window start = Index*width), so
// windows from different replicas of the same experiment align exactly.
type Window struct {
	Index   int64
	Up      time.Duration
	Down    time.Duration
	Outages int64
	// DownByCause attributes down time to the failure that opened the
	// outage, indexed [Component][FailureKind] (slot [0][0] collects
	// outages with no attributable prior failure, e.g. maintenance).
	DownByCause [int(ComponentHADB) + 1][int(FailureHW) + 1]time.Duration
	// DownByClass attributes down time to the outage's cause class
	// (independent, common-cause, partition).
	DownByClass [int(CausePartition) + 1]time.Duration
}

// Availability is the window's up fraction (1 for an empty window).
func (w Window) Availability() float64 {
	total := w.Up + w.Down
	if total <= 0 {
		return 1
	}
	return float64(w.Up) / float64(total)
}

// WindowAggregate summarizes evicted windows.
type WindowAggregate struct {
	Windows int64
	Up      time.Duration
	Down    time.Duration
	Outages int64
}

// defaultWindowCap bounds ring retention; at the default 1h window that is
// about 42 simulated days of full-resolution history before folding.
const defaultWindowCap = 1024

// NewTimeSeries constructs a recorder with the given window width
// (required > 0) retaining at most capWindows windows (0 or negative
// selects the default of 1024).
func NewTimeSeries(width time.Duration, capWindows int) *TimeSeries {
	if width <= 0 {
		panic("testbed: TimeSeries window width must be positive")
	}
	if capWindows <= 0 {
		capWindows = defaultWindowCap
	}
	return &TimeSeries{width: width, cap: capWindows}
}

// Width returns the window width.
func (ts *TimeSeries) Width() time.Duration { return ts.width }

// Cap returns the ring capacity in windows.
func (ts *TimeSeries) Cap() int { return ts.cap }

// Observe consumes one cluster event. Events must arrive in nondecreasing
// sim-time order (the cluster emits them that way). Use it directly as a
// testbed Observer: opts.Observer = ts.Observe.
//
// Time is accounted only where the up/down state changes, at outage
// starts and ends; a failure only notes the component and kind that a
// following outage is attributed to, and every other event is ignored.
// Windows are therefore complete only after FinishAt: read the series
// (Windows, Evicted, WriteJSON, Merge) once the run has finished.
func (ts *TimeSeries) Observe(e Event) {
	switch e.Type {
	case EventFailure:
		ts.st.lastComp, ts.st.lastKind, ts.st.haveLast = e.Component, e.Kind, true
	case EventOutageStart:
		ts.advance(e.Time)
		if !ts.st.down {
			ts.st.down = true
			ts.st.causeClass = e.Class
			if ts.st.haveLast {
				ts.st.causeComp, ts.st.causeKind = ts.st.lastComp, ts.st.lastKind
			} else {
				ts.st.causeComp, ts.st.causeKind = 0, 0
			}
			w := ts.window(ts.windowIndex(e.Time))
			if w != nil {
				w.Outages++
			}
		}
	case EventOutageEnd:
		ts.advance(e.Time)
		ts.st.down = false
		ts.st.haveLast = false
	}
}

// FinishAt accounts the remaining span up to the end of the observation
// horizon and must be called once when the run completes (Stats() time).
// It completes the series: until then the span since the last outage
// boundary is unaccounted.
func (ts *TimeSeries) FinishAt(t time.Duration) {
	ts.advance(t)
}

// advance accounts [st.at, t) as up or down time, splitting the span at
// window boundaries.
func (ts *TimeSeries) advance(t time.Duration) {
	// Fast path: the span stays inside the cached current window.
	if ts.cur != nil && t <= ts.curEnd {
		span := t - ts.st.at
		if ts.st.down {
			ts.cur.Down += span
			ts.cur.DownByCause[ts.st.causeComp][ts.st.causeKind] += span
			ts.cur.DownByClass[ts.st.causeClass] += span
		} else {
			ts.cur.Up += span
		}
		ts.st.at = t
		return
	}
	ts.cur = nil
	for ts.st.at < t {
		idx := ts.windowIndex(ts.st.at)
		end := time.Duration(idx+1) * ts.width
		last := end >= t
		if end > t {
			end = t
		}
		span := end - ts.st.at
		if w := ts.window(idx); w != nil {
			if ts.st.down {
				w.Down += span
				w.DownByCause[ts.st.causeComp][ts.st.causeKind] += span
				w.DownByClass[ts.st.causeClass] += span
			} else {
				w.Up += span
			}
			if last { // warm the cache with the window holding st.at
				ts.cur, ts.curEnd = w, time.Duration(idx+1)*ts.width
			}
		} else if ts.st.down { // span predates the ring (merge-time only)
			ts.evicted.Down += span
		} else {
			ts.evicted.Up += span
		}
		ts.st.at = end
	}
}

func (ts *TimeSeries) windowIndex(t time.Duration) int64 {
	return int64(t / ts.width)
}

// window returns the ring slot for absolute window idx, appending (and
// evicting) as needed. It returns nil for windows older than the ring —
// callers fold those spans into the evicted aggregate instead.
func (ts *TimeSeries) window(idx int64) *Window {
	if ts.count > 0 {
		first := ts.buf[ts.head].Index
		if idx < first {
			return nil
		}
		if idx < first+int64(ts.count) {
			return &ts.buf[(ts.head+int(idx-first))%ts.cap]
		}
	}
	if ts.buf == nil {
		ts.buf = make([]Window, ts.cap)
	}
	// Append windows (empty gaps included) until idx is resident.
	next := idx
	if ts.count > 0 {
		next = ts.buf[ts.head].Index + int64(ts.count)
	}
	for ; next <= idx; next++ {
		if ts.count == ts.cap {
			ts.evict()
		}
		slot := (ts.head + ts.count) % ts.cap
		ts.buf[slot] = Window{Index: next}
		ts.count++
	}
	return &ts.buf[(ts.head+int(idx-ts.buf[ts.head].Index))%ts.cap]
}

// evict folds the oldest window into the aggregate in O(1).
func (ts *TimeSeries) evict() {
	if ts.cur == &ts.buf[ts.head] {
		// The evicted slot will be reused for a newer window (possible
		// via Merge appending far-future indices); drop the cache.
		ts.cur = nil
	}
	w := ts.buf[ts.head]
	ts.evicted.Windows++
	ts.evicted.Up += w.Up
	ts.evicted.Down += w.Down
	ts.evicted.Outages += w.Outages
	ts.head = (ts.head + 1) % ts.cap
	ts.count--
}

// Windows returns the retained windows oldest-first (a copy).
func (ts *TimeSeries) Windows() []Window {
	out := make([]Window, ts.count)
	for i := 0; i < ts.count; i++ {
		out[i] = ts.buf[(ts.head+i)%ts.cap]
	}
	return out
}

// Evicted returns the aggregate of windows dropped from the ring.
func (ts *TimeSeries) Evicted() WindowAggregate { return ts.evicted }

// Merge folds another series into ts by absolute window index; both must
// share the same width. Replicated campaigns run each replica from sim
// time zero, so replica windows align index-for-index and merged windows
// accumulate more than one window-width of exposure — availability stays
// the exact up fraction. Merge replicas in ascending replica order (the
// MergeStats convention) and the result is deterministic at any
// parallelism. Windows falling off the merged ring fold into Evicted.
func (ts *TimeSeries) Merge(o *TimeSeries) {
	if o == nil {
		return
	}
	if o.width != ts.width {
		panic(fmt.Sprintf("testbed: merging TimeSeries of different widths (%s vs %s)", ts.width, o.width))
	}
	ts.evicted.Windows += o.evicted.Windows
	ts.evicted.Up += o.evicted.Up
	ts.evicted.Down += o.evicted.Down
	ts.evicted.Outages += o.evicted.Outages
	for i := 0; i < o.count; i++ {
		ow := o.buf[(o.head+i)%o.cap]
		w := ts.window(ow.Index)
		if w == nil {
			ts.evicted.Up += ow.Up
			ts.evicted.Down += ow.Down
			ts.evicted.Outages += ow.Outages
			continue
		}
		w.Up += ow.Up
		w.Down += ow.Down
		w.Outages += ow.Outages
		for c := range ow.DownByCause {
			for k := range ow.DownByCause[c] {
				w.DownByCause[c][k] += ow.DownByCause[c][k]
			}
		}
		for cl := range ow.DownByClass {
			w.DownByClass[cl] += ow.DownByClass[cl]
		}
	}
}

// causeKey labels a DownByCause slot for export ("as/process",
// "hadb/hw", or "unattributed" for outages with no prior failure).
func causeKey(c Component, k FailureKind) string {
	if c == 0 {
		return "unattributed"
	}
	return fmt.Sprintf("%s/%s", c, k)
}

// windowJSON is the export shape of one window. Durations are integer
// nanoseconds so same-seed runs serialize byte-identically.
type windowJSON struct {
	Index        int64            `json:"index"`
	StartNanos   int64            `json:"startNanos"`
	UpNanos      int64            `json:"upNanos"`
	DownNanos    int64            `json:"downNanos"`
	Availability float64          `json:"availability"`
	Outages      int64            `json:"outages,omitempty"`
	DownByCause  map[string]int64 `json:"downByCauseNanos,omitempty"`
	DownByClass  map[string]int64 `json:"downByClassNanos,omitempty"`
}

type timeSeriesJSON struct {
	WindowNanos int64          `json:"windowNanos"`
	Windows     []windowJSON   `json:"windows"`
	Evicted     *aggregateJSON `json:"evicted,omitempty"`
}

type aggregateJSON struct {
	Windows   int64 `json:"windows"`
	UpNanos   int64 `json:"upNanos"`
	DownNanos int64 `json:"downNanos"`
	Outages   int64 `json:"outages"`
}

// WriteJSON renders the series as one indented JSON document. Map keys
// sort deterministically under encoding/json, so same-seed runs produce
// byte-identical output at any replica parallelism.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	doc := timeSeriesJSON{
		WindowNanos: int64(ts.width),
		Windows:     make([]windowJSON, 0, ts.count),
	}
	for _, win := range ts.Windows() {
		wj := windowJSON{
			Index:        win.Index,
			StartNanos:   win.Index * int64(ts.width),
			UpNanos:      int64(win.Up),
			DownNanos:    int64(win.Down),
			Availability: win.Availability(),
			Outages:      win.Outages,
		}
		for c := range win.DownByCause {
			for k := range win.DownByCause[c] {
				if d := win.DownByCause[c][k]; d > 0 {
					if wj.DownByCause == nil {
						wj.DownByCause = make(map[string]int64)
					}
					wj.DownByCause[causeKey(Component(c), FailureKind(k))] = int64(d)
				}
			}
		}
		// Only correlated classes are emitted: independent downtime is
		// DownNanos minus the rest, and domain-free runs keep their exact
		// pre-fault-domain serialization.
		for cl, d := range win.DownByClass {
			if Cause(cl) != CauseIndependent && d > 0 {
				if wj.DownByClass == nil {
					wj.DownByClass = make(map[string]int64)
				}
				wj.DownByClass[Cause(cl).String()] = int64(d)
			}
		}
		doc.Windows = append(doc.Windows, wj)
	}
	if ts.evicted != (WindowAggregate{}) {
		doc.Evicted = &aggregateJSON{
			Windows:   ts.evicted.Windows,
			UpNanos:   int64(ts.evicted.Up),
			DownNanos: int64(ts.evicted.Down),
			Outages:   ts.evicted.Outages,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteText renders a human-readable table: one line per window with
// availability, downtime, and outage count.
func (ts *TimeSeries) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "window width %s, %d windows retained", ts.width, ts.count); err != nil {
		return err
	}
	if ts.evicted.Windows > 0 {
		if _, err := fmt.Fprintf(w, " (%d evicted: up %s, down %s, %d outages)",
			ts.evicted.Windows, ts.evicted.Up, ts.evicted.Down, ts.evicted.Outages); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, win := range ts.Windows() {
		start := time.Duration(win.Index) * ts.width
		if _, err := fmt.Fprintf(w, "  [%12s] avail %.6f  down %-12s outages %d\n",
			start, win.Availability(), win.Down, win.Outages); err != nil {
			return err
		}
	}
	return nil
}

// PublishObs pushes the series' summary into the obs registry gauges, so
// /metrics and the SSE stream carry the windowed view. Call it on the
// final (merged) series only — per-replica workers would race on the
// shared gauges.
func (ts *TimeSeries) PublishObs() {
	obsTSWindows.Set(float64(ts.count))
	obsTSEvicted.Set(float64(ts.evicted.Windows))
	if ts.count > 0 {
		last := ts.buf[(ts.head+ts.count-1)%ts.cap]
		obsTSLastAvail.Set(last.Availability())
		obsTSLastDown.Set(last.Down.Seconds())
	}
}

var (
	obsTSWindows = obs.G("testbed_timeseries_windows",
		"availability time-series windows currently retained")
	obsTSEvicted = obs.G("testbed_timeseries_windows_evicted",
		"availability time-series windows folded into the evicted aggregate")
	obsTSLastAvail = obs.G("testbed_timeseries_last_window_availability",
		"availability of the most recent retained sim-time window")
	obsTSLastDown = obs.G("testbed_timeseries_last_window_downtime_seconds",
		"down time accumulated in the most recent retained sim-time window")
)

// MultiObserver composes observers: each event fans out to every non-nil
// observer in order. Campaign drivers use it to attach a flight recorder
// and a TimeSeries to the same cluster. Returns nil when every observer
// is nil, preserving the cluster's no-observer fast path.
func MultiObserver(obs ...Observer) Observer {
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, o := range live {
			o(e)
		}
	}
}
