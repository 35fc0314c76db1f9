package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/progress"
)

// fakeClock is a mutex-guarded manual time source; the engine reads it
// from several goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// constTask returns a task whose runner yields the given payload and
// counts invocations.
func constTask(hash, payload string, calls *atomic.Int64) Task {
	return Task{
		Kind: "test",
		Hash: hash,
		Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
			if calls != nil {
				calls.Add(1)
			}
			return json.RawMessage(payload), nil
		},
	}
}

func waitDone(t *testing.T, e *Engine, id int64) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%d): %v", id, err)
	}
	return st
}

func TestSubmitComputesThenServesFromCache(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	var calls atomic.Int64
	st, err := e.Submit(constTask("h1", `{"x":1}`, &calls))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Cached {
		t.Fatalf("first submission reported cached")
	}
	first := waitDone(t, e, st.ID)
	if first.State != StateDone || string(first.Result) != `{"x":1}` {
		t.Fatalf("first result = %+v", first)
	}

	second, err := e.Submit(constTask("h1", `{"x":1}`, &calls))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("repeat not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatalf("cache hit reused the original job ID %d", first.ID)
	}
	if string(second.Result) != string(first.Result) {
		t.Fatalf("cache hit bytes %q != fresh bytes %q", second.Result, first.Result)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
}

func TestSingleFlightCoalescesConcurrentStorm(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 4})
	defer e.Close()
	var calls atomic.Int64
	release := make(chan struct{})
	task := Task{
		Kind: "storm",
		Hash: "storm-hash",
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			calls.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return json.RawMessage(`{"ok":true}`), nil
		},
	}

	const n = 32
	ids := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := e.Submit(task)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(release)

	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %d, want shared job %d", i, ids[i], ids[0])
		}
	}
	st := waitDone(t, e, ids[0])
	if st.State != StateDone {
		t.Fatalf("shared job state = %s (%s)", st.State, st.Error)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner executed %d times under storm, want exactly 1", got)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 2})
	defer e.Close()
	var calls atomic.Int64
	submit := func(hash string) Status {
		t.Helper()
		st, err := e.Submit(constTask(hash, fmt.Sprintf(`{"h":%q}`, hash), &calls))
		if err != nil {
			t.Fatalf("submit %s: %v", hash, err)
		}
		return waitDone(t, e, st.ID)
	}

	submit("a")
	submit("b")
	if st := submit("a"); !st.Cached { // refresh a's recency: LRU is now b
		t.Fatalf("a not cached after insert")
	}
	submit("c") // full cache: evicts b, keeps {a, c}
	if n := e.CacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if st := submit("a"); !st.Cached {
		t.Fatalf("a evicted despite being most recently used")
	}
	if st := submit("c"); !st.Cached {
		t.Fatalf("c evicted despite being newest insert")
	}
	if st := submit("b"); st.Cached {
		t.Fatalf("b survived eviction; expected least-recently-used to go")
	}
	// a, b, c computed once each plus b's post-eviction recompute.
	if n := calls.Load(); n != 4 {
		t.Fatalf("runner called %d times, want 4", n)
	}
}

func TestQueueFullRejectsDeterministically(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := Task{
		Kind: "blocker",
		Hash: "blocker",
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return json.RawMessage(`1`), nil
		},
	}
	bst, err := e.Submit(blocker)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started // the single worker is now occupied

	filler, err := e.Submit(constTask("filler", `2`, nil))
	if err != nil {
		t.Fatalf("submit filler: %v", err) // occupies the one queue slot
	}
	if _, err := e.Submit(constTask("overflow", `3`, nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	// An identical submission still coalesces even when the queue is full:
	// it consumes no slot.
	if st, err := e.Submit(constTask("filler", `2`, nil)); err != nil || st.ID != filler.ID {
		t.Fatalf("coalesce during overflow: st=%+v err=%v", st, err)
	}

	close(release)
	waitDone(t, e, bst.ID)
	waitDone(t, e, filler.ID)
}

func TestFinishedRecordsGCByCountAndTTL(t *testing.T) {
	clock := newFakeClock()
	e := New(Config{Workers: 1, KeepDone: 2, TTL: time.Hour, Clock: clock.Now})
	defer e.Close()
	submit := func(hash string) Status {
		t.Helper()
		st, err := e.Submit(constTask(hash, `{}`, nil))
		if err != nil {
			t.Fatalf("submit %s: %v", hash, err)
		}
		return waitDone(t, e, st.ID)
	}

	a := submit("a")
	b := submit("b")
	c := submit("c") // KeepDone=2: a's record is evicted
	if _, ok := e.Status(a.ID); ok {
		t.Fatalf("job %d retained past KeepDone", a.ID)
	}
	if _, ok := e.Status(b.ID); !ok {
		t.Fatalf("job %d evicted while within KeepDone", b.ID)
	}

	clock.Advance(2 * time.Hour)
	e.Statuses() // runs GC against the advanced clock
	for _, st := range []Status{b, c} {
		if _, ok := e.Status(st.ID); ok {
			t.Fatalf("job %d retained past TTL", st.ID)
		}
	}
	// Record GC must not touch the result cache.
	if st := submit("a"); !st.Cached {
		t.Fatalf("cache entry lost to record GC")
	}
}

// TestWatchOutlivesRecordGC: a watcher holds the job record, so it still
// reads the final status and result after KeepDone has evicted the record
// from Status, and its done channel is the one Wait blocks on.
func TestWatchOutlivesRecordGC(t *testing.T) {
	e := New(Config{Workers: 1, KeepDone: 1})
	defer e.Close()
	release := make(chan struct{})
	st, err := e.Submit(Task{
		Kind: "test",
		Hash: "watched",
		Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
			<-release
			return json.RawMessage(`{"answer":42}`), nil
		},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done, status, ok := e.Watch(st.ID)
	if !ok {
		t.Fatalf("Watch(%d) found no job", st.ID)
	}
	select {
	case <-done:
		t.Fatal("done closed before the job ran")
	default:
	}
	if got := status().State; got != StateQueued && got != StateRunning {
		t.Fatalf("watched state before release = %s", got)
	}
	close(release)
	<-done
	final := waitDone(t, e, st.ID)

	// KeepDone=1: the next finished job evicts the watched record.
	waitDone(t, e, mustSubmit(t, e, constTask("evictor", `1`, nil)).ID)
	if _, ok := e.Status(st.ID); ok {
		t.Fatalf("job %d retained past KeepDone", st.ID)
	}
	if _, _, ok := e.Watch(st.ID); ok {
		t.Fatalf("Watch(%d) found an evicted job", st.ID)
	}
	got := status()
	if got.State != StateDone || string(got.Result) != `{"answer":42}` {
		t.Fatalf("watched status after GC = %+v, want done with the result", got)
	}
	if got.EndedAt != final.EndedAt {
		t.Fatalf("watched EndedAt = %q, Wait saw %q", got.EndedAt, final.EndedAt)
	}
}

// TestWatchCacheHitIsDone: a cache hit is born done, so its watch channel
// is already closed.
func TestWatchCacheHitIsDone(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	waitDone(t, e, mustSubmit(t, e, constTask("h", `7`, nil)).ID)
	hit := mustSubmit(t, e, constTask("h", `7`, nil))
	if !hit.Cached {
		t.Fatal("resubmission missed the cache")
	}
	done, status, ok := e.Watch(hit.ID)
	if !ok {
		t.Fatalf("Watch(%d) found no job", hit.ID)
	}
	select {
	case <-done:
	default:
		t.Fatal("cache hit's done channel is open")
	}
	if st := status(); st.State != StateDone || string(st.Result) != `7` {
		t.Fatalf("cache hit status = %+v", st)
	}
}

// TestWatchSeesQueuedJobFailedByClose: a job still queued at Close closes
// its watch channel with a failed, ErrClosed status.
func TestWatchSeesQueuedJobFailedByClose(t *testing.T) {
	e := New(Config{Workers: 1})
	started := make(chan struct{})
	mustSubmit(t, e, Task{
		Kind: "blocker",
		Hash: "blocker",
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	<-started
	queued := mustSubmit(t, e, constTask("queued", `1`, nil))
	done, status, ok := e.Watch(queued.ID)
	if !ok {
		t.Fatalf("Watch(%d) found no job", queued.ID)
	}
	e.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("done channel of a job failed by Close stayed open")
	}
	if st := status(); st.State != StateFailed || st.Error != ErrClosed.Error() {
		t.Fatalf("queued job after Close = %+v", st)
	}
}

func mustSubmit(t *testing.T, e *Engine, task Task) Status {
	t.Helper()
	st, err := e.Submit(task)
	if err != nil {
		t.Fatalf("submit %s: %v", task.Hash, err)
	}
	return st
}

func TestCloseFailsQueuedJobsAndRejectsSubmits(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 2})
	started := make(chan struct{})
	blocker := Task{
		Kind: "blocker",
		Hash: "blocker",
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	bst, err := e.Submit(blocker)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	queued, err := e.Submit(constTask("queued", `1`, nil))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	e.Close()

	if st, ok := e.Status(bst.ID); !ok || st.State != StateFailed {
		t.Fatalf("running job after Close: %+v (ok=%v)", st, ok)
	}
	st, ok := e.Status(queued.ID)
	if !ok || st.State != StateFailed || st.Error != ErrClosed.Error() {
		t.Fatalf("queued job after Close: %+v (ok=%v)", st, ok)
	}
	if _, err := e.Submit(constTask("late", `1`, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestRetryAfterTracksServiceTime(t *testing.T) {
	clock := newFakeClock()
	e := New(Config{Workers: 1, Clock: clock.Now})
	defer e.Close()
	if d := e.RetryAfter(); d != 0 {
		t.Fatalf("RetryAfter before any job = %v, want 0 (no signal)", d)
	}
	task := Task{
		Kind: "slow",
		Hash: "slow",
		Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
			clock.Advance(10 * time.Second)
			return json.RawMessage(`1`), nil
		},
	}
	st, err := e.Submit(task)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, e, st.ID)
	if d := e.RetryAfter(); d != 10*time.Second {
		t.Fatalf("RetryAfter = %v, want 10s (EWMA of one 10s job / 1 worker)", d)
	}
}

func TestCanonicalHashNormalizes(t *testing.T) {
	type req struct {
		Instances int `json:"instances"`
		Pairs     int `json:"pairs"`
	}
	h1, err := CanonicalHash("jsas", req{Instances: 2, Pairs: 2})
	if err != nil {
		t.Fatalf("CanonicalHash: %v", err)
	}
	h2, _ := CanonicalHash("jsas", req{Pairs: 2, Instances: 2})
	if h1 != h2 {
		t.Fatalf("field assignment order changed the hash: %s vs %s", h1, h2)
	}
	h3, _ := CanonicalHash("jsas", req{Instances: 2, Pairs: 4})
	if h1 == h3 {
		t.Fatalf("different requests collided: %s", h1)
	}
	h4, _ := CanonicalHash("solve", req{Instances: 2, Pairs: 2})
	if h1 == h4 {
		t.Fatalf("kind not part of the hash: %s", h1)
	}
	if _, err := CanonicalHash("bad", func() {}); err == nil {
		t.Fatalf("unmarshalable request did not error")
	}
}

func TestSubmitValidatesTask(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	if _, err := e.Submit(Task{Kind: "x"}); err == nil {
		t.Fatalf("task without hash/run accepted")
	}
}
