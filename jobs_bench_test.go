package avail

// Job-engine benchmarks and the cache gate: a cache hit must be orders of
// magnitude cheaper than the computation it replaces
// (minJobCacheSpeedup), and coalescing onto an in-flight job must stay in
// the same O(1) regime as a hit. The miss path runs a real 100-sample
// uncertainty analysis — the workload the async API exists to
// deduplicate — so the ratio measures the cache against genuine solver
// work, not a stub.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/progress"
)

// benchJobReq is the canonical request the bench jobs are keyed by.
type benchJobReq struct {
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed"`
}

// benchUncertaintyTask builds an engine task running a real uncertainty
// analysis, hashed over its canonicalized request like the HTTP API does.
func benchUncertaintyTask(tb testing.TB, samples int, seed int64) jobs.Task {
	tb.Helper()
	hash, err := jobs.CanonicalHash("uncertainty", benchJobReq{Samples: samples, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	p := DefaultParams()
	return jobs.Task{
		Kind: "uncertainty",
		Hash: hash,
		Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
			res, err := RunUncertainty(Config1, p, UncertaintyOptions{Samples: samples, Seed: seed})
			if err != nil {
				return nil, err
			}
			return json.Marshal(map[string]float64{"meanDowntimeMinutes": res.Summary.Mean})
		},
	}
}

// jobCacheMiss submits a never-seen request (unique seed) and waits for
// the full computation.
func jobCacheMiss(tb testing.TB, eng *jobs.Engine, seed int64) {
	tb.Helper()
	st, err := eng.Submit(benchUncertaintyTask(tb, 100, seed))
	if err != nil {
		tb.Fatal(err)
	}
	if st.Cached {
		tb.Fatal("cache miss hit the cache")
	}
	final, err := eng.Wait(context.Background(), st.ID)
	if err != nil {
		tb.Fatal(err)
	}
	if final.State != jobs.StateDone {
		tb.Fatalf("job failed: %s", final.Error)
	}
}

// jobCacheHit resubmits an already-computed task: the whole submission
// resolves synchronously from the LRU.
func jobCacheHit(tb testing.TB, eng *jobs.Engine, task jobs.Task) {
	tb.Helper()
	hit, err := eng.Submit(task)
	if err != nil {
		tb.Fatal(err)
	}
	if !hit.Cached {
		tb.Fatal("cache hit missed the cache")
	}
}

// BenchmarkJobCacheMiss is the baseline: every iteration computes a new
// request.
func BenchmarkJobCacheMiss(b *testing.B) {
	eng := jobs.New(jobs.Config{Workers: 1, KeepDone: 16})
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobCacheMiss(b, eng, int64(i))
	}
}

// BenchmarkJobCacheHit serves one already-computed request per iteration.
func BenchmarkJobCacheHit(b *testing.B) {
	eng := jobs.New(jobs.Config{Workers: 1, KeepDone: 16})
	defer eng.Close()
	jobCacheMiss(b, eng, 2004)
	task := benchUncertaintyTask(b, 100, 2004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobCacheHit(b, eng, task)
	}
}

// minJobCacheSpeedup is how many times faster than a miss a hit must be.
// It sits around 1,000–1,800× on a 2-CPU host; 100× leaves room for load
// noise without ever passing on a broken cache.
const minJobCacheSpeedup = 100

func TestJobCacheSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts wall time")
	}
	const misses, hits = 20, 10000
	eng := jobs.New(jobs.Config{Workers: 1, KeepDone: 16})
	defer eng.Close()
	start := time.Now()
	for seed := int64(0); seed < misses; seed++ {
		jobCacheMiss(t, eng, seed)
	}
	miss := float64(time.Since(start)) / misses
	task := benchUncertaintyTask(t, 100, misses-1)
	start = time.Now()
	for i := 0; i < hits; i++ {
		jobCacheHit(t, eng, task)
	}
	hit := float64(time.Since(start)) / hits
	speedup := miss / hit
	t.Logf("miss %.0f ns, hit %.0f ns, speedup %.0f×", miss, hit, speedup)
	if speedup < minJobCacheSpeedup {
		t.Errorf("a cache hit is only %.0f× faster than a miss, want ≥ minJobCacheSpeedup (%d×)",
			speedup, minJobCacheSpeedup)
	}
}

// BenchmarkJobCacheCoalesced submits against a deliberately in-flight
// identical job: every submission must join it without queueing work.
func BenchmarkJobCacheCoalesced(b *testing.B) {
	eng := jobs.New(jobs.Config{Workers: 1, KeepDone: 16})
	defer eng.Close()
	release := make(chan struct{})
	task := jobs.Task{
		Kind: "blocker",
		Hash: "bench-coalesce",
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return json.RawMessage(`1`), nil
		},
	}
	first, err := eng.Submit(task)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Submit(task)
		if err != nil {
			b.Fatal(err)
		}
		if st.ID != first.ID {
			b.Fatalf("submission %d did not coalesce onto job %d", i, first.ID)
		}
	}
	b.StopTimer()
	close(release)
	if _, err := eng.Wait(context.Background(), first.ID); err != nil {
		b.Fatal(err)
	}
	if st, _ := eng.Status(first.ID); st.Coalesced != int64(b.N) {
		b.Fatalf("coalesced = %d, want %d", st.Coalesced, b.N)
	}
}

// BenchmarkJobStreamFollow times following a fresh job over
// GET /v1/jobs/{id}/stream?interval=10ms: submit a trivial task, open the
// stream, let the task finish once the first status frame is in, and stop
// at the done frame. The job ends between ticks, so this is the follow
// layer's latency: the stream's reaction to the job's end, not the work.
func BenchmarkJobStreamFollow(b *testing.B) {
	eng := jobs.New(jobs.Config{Workers: 1, KeepDone: 16})
	defer eng.Close()
	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Options{Jobs: eng}))
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release := make(chan struct{})
		st, err := eng.Submit(jobs.Task{
			Kind: "follow",
			Hash: "follow-" + strconv.Itoa(i),
			Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
				<-release
				return json.RawMessage(`1`), nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/stream?interval=10ms", srv.URL, st.ID))
		if err != nil {
			b.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		if ev := nextEvent(b, br); ev != "status" {
			b.Fatalf("first event = %q, want status", ev)
		}
		close(release)
		for nextEvent(b, br) != "done" {
		}
		resp.Body.Close()
	}
}

// nextEvent reads SSE lines up to the next event name.
func nextEvent(tb testing.TB, br *bufio.Reader) string {
	tb.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			tb.Fatalf("read job stream: %v", err)
		}
		if ev, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "event: "); ok {
			return ev
		}
	}
}
