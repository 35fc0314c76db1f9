// Package jobs turns the serving path into an asynchronous job engine:
// submissions enter a bounded queue drained by a worker pool (built on
// internal/pool), results land in an LRU cache keyed by a canonical
// content hash of the request, and identical concurrent submissions are
// coalesced into a single computation (single-flight).
//
// The availability workloads this engine runs — sweeps, uncertainty
// analyses, fault-injection campaigns — are deterministic functions of
// (model spec, parameters, seed), so a repeat request is pure waste and
// an identical concurrent request is redundant work. The cache serves a
// repeat in O(1) with bytes identical to the fresh solve that populated
// it, and single-flight lets N identical submissions share one solve and
// observe the same result. The queue bound is the engine's backpressure:
// a full queue rejects with ErrQueueFull, and the caller can translate
// the observed job service time (RetryAfter) into an honest Retry-After
// hint instead of a constant.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/progress"
	"repro/internal/trace"
)

// Submission and cache metrics, reported to the default obs registry.
var (
	obsSubmitted = obs.C("jobs_submitted_total",
		"job submissions accepted, coalesced, or served from cache")
	obsHits = obs.C("jobs_cache_hits_total",
		"submissions answered from the result cache")
	obsMisses = obs.C("jobs_cache_misses_total",
		"submissions that required a fresh computation")
	obsCoalesced = obs.C("jobs_coalesced_total",
		"submissions coalesced onto an identical in-flight job")
	obsEvictions = obs.C("jobs_cache_evictions_total",
		"result-cache entries evicted to stay within -cache-size")
	obsRejected = obs.C("jobs_rejected_total",
		"submissions rejected because the job queue was full")
	obsFailed = obs.C("jobs_failed_total",
		"jobs that completed with an error")
	obsQueueDepth = obs.G("jobs_queue_depth",
		"jobs waiting in the queue (excludes running jobs)")
	obsService = obs.H("jobs_service_seconds",
		"job execution time from dequeue to completion", obs.DurationBuckets)
)

// Submission-path errors.
var (
	// ErrQueueFull reports that the bounded job queue had no free slot;
	// the submission was rejected, not queued.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed reports a submission to an engine after Close.
	ErrClosed = errors.New("jobs: engine closed")
	// ErrNotFound reports a job ID the engine does not retain (never
	// assigned, or GC'd past the retention bound / TTL).
	ErrNotFound = errors.New("jobs: no such job")
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: queued → running → done | failed. Cache hits are born
// done.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 64
	DefaultCacheSize  = 1024
	DefaultKeepDone   = 256
)

// svcAlpha weights the newest observation in the service-time EWMA that
// backs RetryAfter; jobs vary from microsecond cache refills to multi-
// second campaigns, so a fast-moving estimate tracks the current mix.
const svcAlpha = 0.3

// Config tunes an Engine. The zero value selects the defaults.
type Config struct {
	// Workers is the number of worker goroutines draining the queue
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// submissions beyond it fail with ErrQueueFull (<= 0 selects 64).
	QueueDepth int
	// CacheSize bounds the result cache in entries: 0 selects the
	// default (1024), negative disables caching entirely.
	CacheSize int
	// KeepDone bounds how many finished job records are retained for
	// polling (<= 0 selects 256). Queued and running jobs are never
	// evicted.
	KeepDone int
	// TTL additionally expires finished job records by age (0 = records
	// live until evicted by KeepDone). The result cache is independent:
	// a GC'd job's result stays cached until LRU eviction.
	TTL time.Duration
	// Registry receives one progress run per executed job, so the jobs
	// show up wherever the registry is surfaced (GET /v1/runs). nil
	// creates a private registry.
	Registry *progress.Registry
	// Clock substitutes the time source (tests).
	Clock func() time.Time
}

// Task is one unit of submittable work. The engine is deliberately
// ignorant of job kinds: the caller supplies the canonical Hash (cache
// and coalescing key) and a Run closure returning the marshaled result.
type Task struct {
	// Kind labels the job for status and progress ("solve", "campaign").
	Kind string
	// Hash is the canonical content hash identifying the computation;
	// see CanonicalHash. Submissions with equal hashes coalesce and
	// share cache entries.
	Hash string
	// Detail is a human-readable request summary for status listings.
	Detail string
	// Total is the expected progress-tracker task count (0 = unknown).
	Total int64
	// TrackerOpts customize the job's progress tracker (unit, statistic).
	TrackerOpts []progress.Option
	// Run executes the job. ctx is the engine's lifetime (not the
	// submitting request's: a coalesced job must outlive any one
	// client); the tracker is never nil. The returned bytes are stored
	// and served verbatim — byte-identical cache hits depend on it.
	Run func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error)
}

// Status is a JSON-ready snapshot of one job.
type Status struct {
	ID     int64  `json:"id"`
	Kind   string `json:"kind"`
	Hash   string `json:"hash"`
	Detail string `json:"detail,omitempty"`
	State  State  `json:"state"`
	// Cached reports that the job was answered from the result cache
	// without computing.
	Cached bool `json:"cached,omitempty"`
	// Coalesced counts later identical submissions that joined this job.
	Coalesced int64               `json:"coalesced,omitempty"`
	CreatedAt string              `json:"createdAt"`
	StartedAt string              `json:"startedAt,omitempty"`
	EndedAt   string              `json:"endedAt,omitempty"`
	Error     string              `json:"error,omitempty"`
	Result    json.RawMessage     `json:"result,omitempty"`
	Progress  *progress.RunStatus `json:"progress,omitempty"`
}

// job is the engine-side record. Mutable fields are guarded by mu (a
// leaf lock: it may be taken while holding Engine.mu, never the other
// way around).
type job struct {
	id   int64
	task Task
	done chan struct{}

	mu        sync.Mutex
	state     State
	cached    bool
	coalesced int64
	created   time.Time
	started   time.Time
	ended     time.Time
	errMsg    string
	result    json.RawMessage
	run       *progress.Run
}

// status snapshots the job. includeResult=false strips the (possibly
// large) result payload for listings.
func (j *job) status(includeResult bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		Kind:      j.task.Kind,
		Hash:      j.task.Hash,
		Detail:    j.task.Detail,
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.ended.IsZero() {
		st.EndedAt = j.ended.UTC().Format(time.RFC3339Nano)
	}
	if includeResult {
		st.Result = j.result
	}
	if j.run != nil {
		rs := j.run.Status()
		st.Progress = &rs
	}
	return st
}

// closedChan is the pre-closed done channel shared by cache-hit jobs.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Engine is the async job engine. Construct with New; Close releases the
// workers. All methods are safe for concurrent use.
type Engine struct {
	workers    int
	queueDepth int
	keepDone   int
	ttl        time.Duration
	reg        *progress.Registry
	clock      func() time.Time

	ctx       context.Context
	cancelCtx context.CancelFunc
	startOnce sync.Once
	started   atomic.Bool
	drained   chan struct{}
	queue     chan *job

	mu        sync.Mutex
	closed    bool
	nextID    int64
	byID      map[int64]*job
	inflight  map[string]*job
	cache     *lruCache // nil = caching disabled
	doneOrder []*job    // finished jobs in completion order, for GC
	svcEWMA   float64   // smoothed job service time, seconds
}

// New constructs an engine. Workers start lazily on the first Submit, so
// an engine that never sees a job costs no goroutines.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.KeepDone <= 0 {
		cfg.KeepDone = DefaultKeepDone
	}
	if cfg.Registry == nil {
		cfg.Registry = progress.NewRegistry(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		workers:    cfg.Workers,
		queueDepth: cfg.QueueDepth,
		keepDone:   cfg.KeepDone,
		ttl:        cfg.TTL,
		reg:        cfg.Registry,
		clock:      cfg.Clock,
		ctx:        ctx,
		cancelCtx:  cancel,
		drained:    make(chan struct{}),
		queue:      make(chan *job, cfg.QueueDepth),
		byID:       make(map[int64]*job),
		inflight:   make(map[string]*job),
	}
	switch {
	case cfg.CacheSize == 0:
		e.cache = newLRU(DefaultCacheSize)
	case cfg.CacheSize > 0:
		e.cache = newLRU(cfg.CacheSize)
	}
	return e
}

// Submit accepts a task and returns the job observing it. Three paths,
// resolved atomically under one lock so no submission can fall between
// them:
//
//  1. Result cached → a new job record born done, carrying the cached
//     bytes (Status.Cached true). O(1), no queue slot consumed.
//  2. Identical job queued or running → that job is returned
//     (single-flight); the submission consumes nothing.
//  3. Fresh → the job enters the bounded queue, or ErrQueueFull.
func (e *Engine) Submit(t Task) (Status, error) {
	if t.Hash == "" || t.Run == nil {
		return Status{}, fmt.Errorf("jobs: task needs a hash and a run function")
	}
	now := e.clock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Status{}, ErrClosed
	}
	obsSubmitted.Inc()
	if e.cache != nil {
		if res := e.cache.get(t.Hash); res != nil {
			obsHits.Inc()
			e.nextID++
			j := &job{
				id:      e.nextID,
				task:    t,
				done:    closedChan,
				state:   StateDone,
				cached:  true,
				created: now,
				started: now,
				ended:   now,
				result:  res,
			}
			e.byID[j.id] = j
			e.doneOrder = append(e.doneOrder, j)
			e.gcLocked(now)
			e.mu.Unlock()
			return j.status(true), nil
		}
	}
	if exist := e.inflight[t.Hash]; exist != nil {
		obsCoalesced.Inc()
		exist.mu.Lock()
		exist.coalesced++
		exist.mu.Unlock()
		e.mu.Unlock()
		return exist.status(true), nil
	}
	obsMisses.Inc()
	e.nextID++
	j := &job{
		id:      e.nextID,
		task:    t,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: now,
	}
	select {
	case e.queue <- j:
	default:
		e.nextID--
		obsRejected.Inc()
		e.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	e.byID[j.id] = j
	e.inflight[t.Hash] = j
	obsQueueDepth.Set(float64(len(e.queue)))
	e.mu.Unlock()

	e.start()
	return j.status(false), nil
}

// start launches the worker pool once. The workers are pool.Run items:
// each of the e.workers indices is one long-lived drain loop, so queue
// workers inherit the pool's cancellation semantics and accounting.
func (e *Engine) start() {
	e.startOnce.Do(func() {
		e.started.Store(true)
		go func() {
			defer close(e.drained)
			_ = pool.Run(e.ctx, e.workers,
				pool.Options{Workers: e.workers, ContinueOnError: true},
				func(int, int) error {
					e.drainLoop()
					return nil
				})
		}()
	})
}

// drainLoop executes queued jobs until the engine context ends. When
// cancellation and a non-empty queue race, select may still hand the
// worker a job — fail it with ErrClosed instead of executing it, so a
// job that was queued (not running) at Close time never completes.
func (e *Engine) drainLoop() {
	for {
		select {
		case <-e.ctx.Done():
			return
		case j := <-e.queue:
			obsQueueDepth.Set(float64(len(e.queue)))
			if e.ctx.Err() != nil {
				e.failClosed(j)
				return
			}
			e.execute(j)
		}
	}
}

// failClosed marks a still-queued job as failed with ErrClosed.
func (e *Engine) failClosed(j *job) {
	now := e.clock()
	e.mu.Lock()
	delete(e.inflight, j.task.Hash)
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = ErrClosed.Error()
	j.ended = now
	close(j.done)
	j.mu.Unlock()
	e.doneOrder = append(e.doneOrder, j)
	e.mu.Unlock()
}

// execute runs one job to completion and publishes its result: cache
// insert, single-flight release, and done-marking happen under the
// engine lock, so a concurrent Submit observes either the in-flight job
// or the cached result — never a gap between them. The run is one trace
// on trace.Default(): a jobs.run root span, passed to the task in its
// context, with the solver spans beneath it.
func (e *Engine) execute(j *job) {
	start := e.clock()
	run := e.reg.Begin("job:"+j.task.Kind, j.task.Detail, j.task.Total, j.task.TrackerOpts...)

	j.mu.Lock()
	j.state = StateRunning
	j.started = start
	j.run = run
	j.mu.Unlock()

	span := trace.Default().Start("jobs.run", nil, trace.String("kind", j.task.Kind))
	res, err := j.task.Run(trace.ContextWith(e.ctx, span), run.Tracker())
	span.End()
	end := e.clock()
	run.Finish(err)
	dur := end.Sub(start).Seconds()
	obsService.Observe(dur)

	e.mu.Lock()
	if e.svcEWMA == 0 {
		e.svcEWMA = dur
	} else {
		e.svcEWMA = svcAlpha*dur + (1-svcAlpha)*e.svcEWMA
	}
	if err == nil && e.cache != nil {
		obsEvictions.Add(e.cache.add(j.task.Hash, res))
	}
	delete(e.inflight, j.task.Hash)
	j.mu.Lock()
	j.ended = end
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		obsFailed.Inc()
	} else {
		j.state = StateDone
		j.result = res
	}
	close(j.done)
	j.mu.Unlock()
	e.doneOrder = append(e.doneOrder, j)
	e.gcLocked(end)
	e.mu.Unlock()
}

// gcLocked evicts finished job records past the TTL, then the oldest
// past the retention count. Requires e.mu.
func (e *Engine) gcLocked(now time.Time) {
	i := 0
	if e.ttl > 0 {
		for i < len(e.doneOrder) {
			j := e.doneOrder[i]
			j.mu.Lock()
			expired := now.Sub(j.ended) > e.ttl
			j.mu.Unlock()
			if !expired {
				break
			}
			delete(e.byID, j.id)
			i++
		}
	}
	for len(e.doneOrder)-i > e.keepDone {
		delete(e.byID, e.doneOrder[i].id)
		i++
	}
	if i > 0 {
		e.doneOrder = append(e.doneOrder[:0], e.doneOrder[i:]...)
	}
}

// Status returns a snapshot of the identified job, including its result.
func (e *Engine) Status(id int64) (Status, bool) {
	e.mu.Lock()
	j := e.byID[id]
	e.mu.Unlock()
	if j == nil {
		return Status{}, false
	}
	return j.status(true), true
}

// Statuses snapshots every retained job, newest first, with results
// stripped (a listing must stay cheap even when results are large).
func (e *Engine) Statuses() []Status {
	e.mu.Lock()
	e.gcLocked(e.clock())
	js := make([]*job, 0, len(e.byID))
	for _, j := range e.byID {
		js = append(js, j)
	}
	e.mu.Unlock()
	sort.Slice(js, func(i, k int) bool { return js[i].id > js[k].id })
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status(false)
	}
	return out
}

// Watch returns the identified job's done channel, closed the moment
// the job finishes (already closed for a cache hit), and a status reader
// bound to the job record itself. The reader keeps answering after the
// record is GC'd from Status, so a follower that holds it always sees the
// final state and result. A finished job's status is final: once done is
// closed, status reports done or failed.
func (e *Engine) Watch(id int64) (done <-chan struct{}, status func() Status, ok bool) {
	e.mu.Lock()
	j := e.byID[id]
	e.mu.Unlock()
	if j == nil {
		return nil, nil, false
	}
	return j.done, func() Status { return j.status(true) }, true
}

// Wait blocks until the identified job finishes (or ctx ends) and
// returns its final status.
func (e *Engine) Wait(ctx context.Context, id int64) (Status, error) {
	done, status, ok := e.Watch(id)
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-done:
		return status(), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// CacheLen reports resident result-cache entries (0 when disabled).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// RetryAfter estimates how long a rejected submitter should wait for a
// queue slot: the smoothed job service time divided by the worker count
// (≈ time until the next worker frees up), clamped to [1s, 1m]. Zero
// means no job has completed yet — the caller should fall back to its
// constant hint.
func (e *Engine) RetryAfter() time.Duration {
	e.mu.Lock()
	svc := e.svcEWMA
	e.mu.Unlock()
	if svc <= 0 {
		return 0
	}
	d := time.Duration(svc / float64(e.workers) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Close stops the engine: running jobs see a canceled context, workers
// drain, and jobs still queued are failed with ErrClosed so no poller
// waits forever. Safe to call twice; Submit after Close returns
// ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()

	e.cancelCtx()
	if e.started.Load() {
		<-e.drained
	}
	for {
		select {
		case j := <-e.queue:
			e.failClosed(j)
		default:
			obsQueueDepth.Set(0)
			return
		}
	}
}

// CanonicalHash computes the engine cache key for a request: SHA-256
// over the kind and the request's canonical JSON encoding. encoding/json
// is canonical for the job request types because struct fields marshal
// in declaration order and maps marshal with sorted keys — so two
// requests that decode (with defaults applied) to the same normalized
// value hash identically regardless of JSON field order or whether
// defaults were spelled out.
func CanonicalHash(kind string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("jobs: canonicalize %s request: %w", kind, err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}
