package progress

import (
	"sort"
	"sync"
	"time"
)

// Run is one tracked unit of server work: an in-flight (or recently
// finished) request with its own Tracker. Runs are registered by the
// HTTP handlers so GET /v1/runs can report what the server is doing
// right now — the per-run progress state the async job engine will
// build on.
type Run struct {
	ID      int64
	Kind    string // e.g. "uncertainty", "sweep"
	Detail  string // free-form request summary, e.g. "config=1 samples=20000"
	Started time.Time
	tracker *Tracker

	mu       sync.Mutex
	finished bool
	ended    time.Time
	err      string
	final    Snapshot // the tracker's state at Finish, served from then on
}

// Tracker returns the run's tracker for driver wiring (never nil).
func (r *Run) Tracker() *Tracker { return r.tracker }

// Finish marks the run complete and freezes its progress: a finished
// run's Status no longer reads the tracker, whose smoothed rate would
// otherwise keep decaying between reads. err may be nil; the first call
// wins.
func (r *Run) Finish(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	r.ended = r.tracker.clock()
	r.final = r.tracker.Snapshot()
	if err != nil {
		r.err = err.Error()
	}
}

// RunStatus is the JSON-friendly snapshot of one run.
type RunStatus struct {
	ID        int64   `json:"id"`
	Kind      string  `json:"kind"`
	Detail    string  `json:"detail,omitempty"`
	State     string  `json:"state"` // "running" | "done" | "error"
	StartedAt string  `json:"startedAt"`
	EndedAt   string  `json:"endedAt,omitempty"`
	Error     string  `json:"error,omitempty"`
	Completed int64   `json:"completed"`
	Total     int64   `json:"total,omitempty"`
	Fraction  float64 `json:"fraction"`
	Rate      float64 `json:"ratePerSec,omitempty"`
	ETASec    float64 `json:"etaSeconds,omitempty"`
	Unit      string  `json:"unit,omitempty"`
	StatName  string  `json:"statName,omitempty"`
	StatMean  float64 `json:"statMean,omitempty"`
	StatHW    float64 `json:"statHalfWidth,omitempty"`
	StatN     int64   `json:"statN,omitempty"`
}

// Status snapshots the run; once finished it is the same on every read.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.final
	if !r.finished {
		snap = r.tracker.Snapshot()
	}
	st := RunStatus{
		ID:        r.ID,
		Kind:      r.Kind,
		Detail:    r.Detail,
		StartedAt: r.Started.UTC().Format(time.RFC3339Nano),
		Completed: snap.Completed,
		Total:     snap.Total,
		Fraction:  snap.Fraction(),
		Rate:      snap.Rate,
		Unit:      snap.Unit,
		StatName:  snap.StatName,
		StatMean:  snap.StatMean,
		StatHW:    snap.StatHalfWidth,
		StatN:     snap.StatN,
	}
	if snap.ETAKnown {
		st.ETASec = snap.ETA.Seconds()
	}
	if r.finished {
		st.EndedAt = r.ended.UTC().Format(time.RFC3339Nano)
		if r.err != "" {
			st.State = "error"
			st.Error = r.err
		} else {
			st.State = "done"
		}
	} else {
		st.State = "running"
	}
	return st
}

// Registry tracks live and recently-completed runs with bounded
// retention: finished runs beyond keepDone are evicted oldest-first, so
// a long-lived server cannot accumulate unbounded history.
type Registry struct {
	mu       sync.Mutex
	nextID   int64
	runs     map[int64]*Run
	keepDone int
	clock    func() time.Time
}

// defaultKeepDone bounds completed-run retention in a registry.
const defaultKeepDone = 32

// NewRegistry constructs a run registry retaining at most keepDone
// finished runs (0 or negative selects the default of 32).
func NewRegistry(keepDone int) *Registry {
	if keepDone <= 0 {
		keepDone = defaultKeepDone
	}
	return &Registry{runs: make(map[int64]*Run), keepDone: keepDone, clock: time.Now}
}

// SetClock substitutes the registry (and new trackers') time source; tests.
func (g *Registry) SetClock(clock func() time.Time) {
	g.mu.Lock()
	g.clock = clock
	g.mu.Unlock()
}

// Begin registers a new run with a fresh tracker expecting total tasks.
// Tracker options (WithStat, WithUnit) apply to the run's tracker.
func (g *Registry) Begin(kind, detail string, total int64, opts ...Option) *Run {
	g.mu.Lock()
	g.nextID++
	id := g.nextID
	clock := g.clock
	g.mu.Unlock()

	opts = append(opts, WithClock(clock))
	run := &Run{
		ID:      id,
		Kind:    kind,
		Detail:  detail,
		Started: clock(),
		tracker: New(total, opts...),
	}

	g.mu.Lock()
	g.runs[id] = run
	g.evictLocked()
	g.mu.Unlock()
	return run
}

// evictLocked drops the oldest finished runs beyond the retention cap.
func (g *Registry) evictLocked() {
	var done []*Run
	for _, r := range g.runs {
		r.mu.Lock()
		fin := r.finished
		r.mu.Unlock()
		if fin {
			done = append(done, r)
		}
	}
	if len(done) <= g.keepDone {
		return
	}
	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	for _, r := range done[:len(done)-g.keepDone] {
		delete(g.runs, r.ID)
	}
}

// Statuses snapshots every retained run, newest first, evicting stale
// finished runs as a side effect.
func (g *Registry) Statuses() []RunStatus {
	g.mu.Lock()
	g.evictLocked()
	runs := make([]*Run, 0, len(g.runs))
	for _, r := range g.runs {
		runs = append(runs, r)
	}
	g.mu.Unlock()

	sort.Slice(runs, func(i, j int) bool { return runs[i].ID > runs[j].ID })
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.Status()
	}
	return out
}
