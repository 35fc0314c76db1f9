package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/progress"
)

// jobClock is a mutex-guarded manual time source for engine tests.
type jobClock struct {
	mu sync.Mutex
	t  time.Time
}

func newJobClock() *jobClock {
	return &jobClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *jobClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *jobClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newJobServer builds a handler around a test-owned engine so repeated
// requests hit the same cache, and returns both.
func newJobServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Engine) {
	t.Helper()
	eng := jobs.New(cfg)
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(NewHandler(Options{Jobs: eng}))
	t.Cleanup(srv.Close)
	return srv, eng
}

// postJob submits one job and decodes the 202 status.
func postJob(t *testing.T, srv *httptest.Server, kind, request string) jobs.Status {
	t.Helper()
	body := fmt.Sprintf(`{"kind":%q,"request":%s}`, kind, request)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode 202 body: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s job: status = %d, want 202", kind, resp.StatusCode)
	}
	wantLoc := fmt.Sprintf("/v1/jobs/%d", st.ID)
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("Location = %q, want %q", loc, wantLoc)
	}
	if len(st.Result) != 0 {
		t.Fatalf("202 body carried a result payload: %s", st.Result)
	}
	return st
}

// getJob polls one job's status.
func getJob(t *testing.T, srv *httptest.Server, id int64) jobs.Status {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, id))
	if err != nil {
		t.Fatalf("GET /v1/jobs/%d: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%d: status = %d, want 200", id, resp.StatusCode)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job %d: %v", id, err)
	}
	return st
}

// waitJob blocks on the engine until the job finishes, then re-reads it
// over HTTP so assertions cover the served representation.
func waitJob(t *testing.T, srv *httptest.Server, eng *jobs.Engine, id int64) jobs.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := eng.Wait(ctx, id); err != nil {
		t.Fatalf("wait job %d: %v", id, err)
	}
	return getJob(t, srv, id)
}

const hierModel = `{
  "name": "h",
  "root": "top",
  "models": [
    {"name":"leaf","parameters":{"La":0.01,"Mu":2},
     "states":[{"name":"Up","reward":1},{"name":"Down","reward":0}],
     "transitions":[{"from":"Up","to":"Down","rate":"La"},{"from":"Down","to":"Up","rate":"Mu"}]},
    {"name":"top",
     "states":[{"name":"Ok","reward":1},{"name":"Fail","reward":0}],
     "transitions":[{"from":"Ok","to":"Fail","rate":"L"},{"from":"Fail","to":"Ok","rate":"M"}]}
  ],
  "bindings": [{"model":"top","child":"leaf","lambda_param":"L","mu_param":"M"}]
}`

// TestJobCacheHitIsByteIdenticalAcrossKinds submits every job kind
// twice: the repeat must come back Cached with result bytes identical to
// the fresh computation's, and must not re-run the work.
func TestJobCacheHitIsByteIdenticalAcrossKinds(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 2})
	cases := []struct {
		kind    string
		request string
	}{
		{JobKindSolve, flatModel},
		{JobKindSolveHierarchy, hierModel},
		{JobKindJSAS, `{"instances":2,"pairs":2,"spares":2}`},
		{JobKindUncertainty, `{"samples":50,"seed":2004}`},
		{JobKindCampaign, `{"injections":50,"seed":7,"replicas":2}`},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			first := postJob(t, srv, c.kind, c.request)
			if first.Cached {
				t.Fatalf("first submission already cached")
			}
			fresh := waitJob(t, srv, eng, first.ID)
			if fresh.State != jobs.StateDone {
				t.Fatalf("job state = %s (%s)", fresh.State, fresh.Error)
			}
			if len(fresh.Result) == 0 {
				t.Fatalf("done job has no result")
			}

			second := postJob(t, srv, c.kind, c.request)
			if !second.Cached || second.State != jobs.StateDone {
				t.Fatalf("repeat submission not cached: %+v", second)
			}
			if second.ID == first.ID {
				t.Fatalf("cache hit reused job ID %d", first.ID)
			}
			if second.Hash != first.Hash {
				t.Fatalf("identical requests hashed differently: %s vs %s", second.Hash, first.Hash)
			}
			hit := getJob(t, srv, second.ID)
			if !bytes.Equal(hit.Result, fresh.Result) {
				t.Fatalf("cache hit not byte-identical:\nfresh: %s\nhit:   %s", fresh.Result, hit.Result)
			}
		})
	}
}

// TestJobCanonicalHashNormalization: JSON field order and explicitly
// spelled defaults must not change a request's identity — all variants
// land on one hash, and every variant after the first is a cache hit.
func TestJobCanonicalHashNormalization(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 2})
	variants := []string{
		`{}`,
		`{"instances":2}`,
		`{"spares":2,"pairs":2,"instances":2}`,
		`{"pairs":2,"instances":2,"spares":2}`,
	}
	first := postJob(t, srv, JobKindJSAS, variants[0])
	waitJob(t, srv, eng, first.ID)
	for _, v := range variants[1:] {
		st := postJob(t, srv, JobKindJSAS, v)
		if st.Hash != first.Hash {
			t.Fatalf("request %s hashed to %s, want %s", v, st.Hash, first.Hash)
		}
		if !st.Cached {
			t.Fatalf("request %s missed the cache despite identical canonical form", v)
		}
	}
	// A materially different request must not collide.
	other := postJob(t, srv, JobKindJSAS, `{"pairs":4}`)
	if other.Hash == first.Hash {
		t.Fatalf("pairs=4 collided with the default request hash")
	}
}

// TestJobSubmitValidation: malformed envelopes and out-of-bounds
// requests are rejected at submit time with a 400 naming the problem.
func TestJobSubmitValidation(t *testing.T) {
	srv, _ := newJobServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		name       string
		body       string
		wantInBody string
	}{
		{"bad envelope", `not json`, "envelope"},
		{"trailing junk", `{"kind":"jsas","request":{}}garbage{`, "trailing data"},
		{"second envelope", `{"kind":"jsas","request":{}} {"kind":"jsas","request":{}}`, "trailing data"},
		{"missing kind", `{"request":{}}`, "kind missing"},
		{"unknown kind", `{"kind":"frobnicate"}`, "unknown job kind"},
		{"unknown field", `{"kind":"jsas","request":{"instancez":2}}`, "instancez"},
		{"instances too large", `{"kind":"jsas","request":{"instances":65}}`, "instances"},
		{"injections zero", `{"kind":"campaign","request":{"injections":0}}`, "injections"},
		{"injections too large", `{"kind":"campaign","request":{"injections":200001}}`, "injections"},
		{"replicas too large", `{"kind":"campaign","request":{"replicas":65}}`, "replicas"},
		{"asFraction out of range", `{"kind":"campaign","request":{"asFraction":1.5}}`, "asFraction"},
		{"bad solve doc", `{"kind":"solve","request":{"name":"x"}}`, ""},
		{"samples too large", `{"kind":"uncertainty","request":{"samples":20001}}`, "samples"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, buf.String())
			}
			if c.wantInBody != "" && !strings.Contains(buf.String(), c.wantInBody) {
				t.Fatalf("400 body %q does not name %q", buf.String(), c.wantInBody)
			}
		})
	}
}

// TestJobQueueFullDerivesRetryAfter: when the queue rejects, the 429's
// Retry-After comes from observed job service time (30s EWMA / 1 worker
// here), not the sync path's constant "1".
func TestJobQueueFullDerivesRetryAfter(t *testing.T) {
	clock := newJobClock()
	srv, eng := newJobServer(t, jobs.Config{Workers: 1, QueueDepth: 1, Clock: clock.Now})

	// Teach the EWMA: one job that takes 30 simulated seconds.
	slow, err := eng.Submit(jobs.Task{
		Kind: "slow", Hash: "retry-after-slow",
		Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
			clock.Advance(30 * time.Second)
			return json.RawMessage(`1`), nil
		},
	})
	if err != nil {
		t.Fatalf("submit slow: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := eng.Wait(ctx, slow.ID); err != nil {
		t.Fatalf("wait slow: %v", err)
	}

	// Saturate: one blocker occupying the worker, one job filling the
	// single queue slot.
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := eng.Submit(jobs.Task{
		Kind: "blocker", Hash: "retry-after-blocker",
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return json.RawMessage(`1`), nil
		},
	}); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	if _, err := eng.Submit(jobs.Task{
		Kind: "filler", Hash: "retry-after-filler",
		Run: func(context.Context, *progress.Tracker) (json.RawMessage, error) {
			return json.RawMessage(`1`), nil
		},
	}); err != nil {
		t.Fatalf("submit filler: %v", err)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"jsas"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want \"30\" (30s service EWMA / 1 worker)", got)
	}
	close(release)
}

// TestJobGetErrors: unknown IDs are 404, unparseable IDs are 400, and
// the stream endpoint agrees.
func TestJobGetErrors(t *testing.T) {
	srv, _ := newJobServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/jobs/999999", http.StatusNotFound},
		{"/v1/jobs/notanumber", http.StatusBadRequest},
		{"/v1/jobs/999999/stream", http.StatusNotFound},
		{"/v1/jobs/notanumber/stream", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("GET %s: status = %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

// TestJobListNewestFirstWithoutResults: the listing orders jobs newest
// first and never carries result payloads.
func TestJobListNewestFirstWithoutResults(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	a := postJob(t, srv, JobKindJSAS, `{}`)
	waitJob(t, srv, eng, a.ID)
	b := postJob(t, srv, JobKindJSAS, `{"pairs":3}`)
	waitJob(t, srv, eng, b.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("listing has %d jobs, want 2", len(out.Jobs))
	}
	if out.Jobs[0].ID != b.ID || out.Jobs[1].ID != a.ID {
		t.Fatalf("listing order = [%d, %d], want newest first [%d, %d]",
			out.Jobs[0].ID, out.Jobs[1].ID, b.ID, a.ID)
	}
	for _, j := range out.Jobs {
		if len(j.Result) != 0 {
			t.Fatalf("listing carried a result for job %d", j.ID)
		}
	}
}

// TestJobStreamFollowsToCompletion: the SSE endpoint emits status frames
// (with progress, without result) while the job runs and a final done
// frame carrying the result.
func TestJobStreamFollowsToCompletion(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	release := make(chan struct{})
	st, err := eng.Submit(jobs.Task{
		Kind: "stream-test", Hash: "stream-test", Total: 2,
		Run: func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error) {
			tr.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			tr.Add(1)
			return json.RawMessage(`{"answer":42}`), nil
		},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/stream?interval=20ms", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	br := bufio.NewReader(resp.Body)
	event, data := readSSEEvent(t, br)
	if event != "status" {
		t.Fatalf("first event = %q, want status", event)
	}
	var frame jobs.Status
	if err := json.Unmarshal(data, &frame); err != nil {
		t.Fatalf("status frame: %v\n%s", err, data)
	}
	if frame.ID != st.ID || len(frame.Result) != 0 {
		t.Fatalf("status frame = %+v, want job %d without result", frame, st.ID)
	}

	close(release)
	for {
		event, data = readSSEEvent(t, br)
		if event == "status" {
			continue
		}
		if event != "done" {
			t.Fatalf("event = %q, want done", event)
		}
		break
	}
	if err := json.Unmarshal(data, &frame); err != nil {
		t.Fatalf("done frame: %v\n%s", err, data)
	}
	if frame.State != jobs.StateDone || string(frame.Result) != `{"answer":42}` {
		t.Fatalf("done frame = %+v, want done with the result", frame)
	}
	if frame.Progress == nil || frame.Progress.Completed != 2 {
		t.Fatalf("done frame progress = %+v, want 2/2", frame.Progress)
	}
}

// blockedTask returns a task that runs until release closes (or the
// engine closes) and records no progress, so its final status snapshot
// does not depend on when it is taken.
func blockedTask(hash string, release <-chan struct{}) jobs.Task {
	return jobs.Task{
		Kind: "stream-test", Hash: hash,
		Run: func(ctx context.Context, _ *progress.Tracker) (json.RawMessage, error) {
			select {
			case <-release:
				return json.RawMessage(`{"answer":42}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

// openJobStream follows one job over SSE. The request carries a 30 s
// deadline so a stream that never ends fails the test instead of hanging
// it.
func openJobStream(t *testing.T, srv *httptest.Server, id int64, interval string) *bufio.Reader {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	url := fmt.Sprintf("%s/v1/jobs/%d/stream?interval=%s", srv.URL, id, interval)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	return bufio.NewReader(resp.Body)
}

// TestJobStreamEndsWhenJobEnds: on a one-minute interval, a job that
// finishes after the first frame delivers its done frame at once, with no
// status frame in between, and the frame's data is exactly the JSON of
// the job's final status.
func TestJobStreamEndsWhenJobEnds(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	release := make(chan struct{})
	st, err := eng.Submit(blockedTask("ends", release))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	br := openJobStream(t, srv, st.ID, "1m")
	if event, _ := readSSEEvent(t, br); event != "status" {
		t.Fatalf("first event = %q, want status", event)
	}

	start := time.Now()
	close(release)
	event, data := readSSEEvent(t, br)
	if lag := time.Since(start); lag > 2*time.Second {
		t.Fatalf("done frame arrived %v after the job ended", lag)
	}
	if event != "done" {
		t.Fatalf("event after the job ended = %q, want done", event)
	}
	final, err := eng.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("done frame data differs from the final status:\nframe: %s\nwant:  %s", data, want)
	}
	if final.State != jobs.StateDone || string(final.Result) != `{"answer":42}` {
		t.Fatalf("final status = %+v", final)
	}
}

// TestJobStreamPacesStatusFrames: a job that keeps running gets status
// frames once per ?interval, not faster.
func TestJobStreamPacesStatusFrames(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	release := make(chan struct{})
	st, err := eng.Submit(blockedTask("paced", release))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	const interval, frames = 100 * time.Millisecond, 4
	br := openJobStream(t, srv, st.ID, interval.String())
	var first time.Time
	for i := 0; i < frames; i++ {
		event, data := readSSEEvent(t, br)
		if event != "status" {
			t.Fatalf("frame %d = %q, want status", i, event)
		}
		var frame jobs.Status
		if err := json.Unmarshal(data, &frame); err != nil || len(frame.Result) != 0 {
			t.Fatalf("frame %d = %s (%v), want a status without result", i, data, err)
		}
		if i == 0 {
			first = time.Now()
		}
	}
	// Frame k follows the k-th tick of a ticker started before frame 0,
	// so frames-1 ticks separate the first and last frame, less the time
	// frame 0 took to arrive.
	if elapsed, min := time.Since(first), (frames-1)*interval-interval/2; elapsed < min {
		t.Fatalf("%d status frames in %v, want them paced at %v (≥ %v)", frames, elapsed, interval, min)
	}
	close(release)
	for {
		event, _ := readSSEEvent(t, br)
		if event == "done" {
			break
		}
		if event != "status" {
			t.Fatalf("event = %q, want status or done", event)
		}
	}
}

// TestJobStreamClosedEngineFailsQueuedJob: a queued job that Close fails
// ends its stream with a failed done frame without waiting for a tick.
func TestJobStreamClosedEngineFailsQueuedJob(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	never := make(chan struct{})
	running, err := eng.Submit(blockedTask("running", never))
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	queued, err := eng.Submit(blockedTask("queued", never))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	// Wait for the worker to take the first job, so the second stays
	// queued until Close.
	for st, _ := eng.Status(running.ID); st.State != jobs.StateRunning; st, _ = eng.Status(running.ID) {
		time.Sleep(time.Millisecond)
	}
	br := openJobStream(t, srv, queued.ID, "1m")
	event, data := readSSEEvent(t, br)
	var frame jobs.Status
	if err := json.Unmarshal(data, &frame); err != nil || event != "status" || frame.State != jobs.StateQueued {
		t.Fatalf("first frame = %s %s (%v), want a queued status", event, data, err)
	}

	start := time.Now()
	eng.Close()
	event, data = readSSEEvent(t, br)
	if lag := time.Since(start); lag > 2*time.Second {
		t.Fatalf("failed frame arrived %v after Close", lag)
	}
	if err := json.Unmarshal(data, &frame); err != nil || event != "done" {
		t.Fatalf("frame after Close = %s %s (%v), want done", event, data, err)
	}
	if frame.State != jobs.StateFailed || frame.Error != jobs.ErrClosed.Error() {
		t.Fatalf("frame after Close = %+v, want failed with %q", frame, jobs.ErrClosed)
	}
}

// TestJobsVisibleInRuns: executed jobs register on the server run
// registry, so GET /v1/runs shows them alongside synchronous work.
func TestJobsVisibleInRuns(t *testing.T) {
	reg := progress.NewRegistry(8)
	eng := jobs.New(jobs.Config{Workers: 1, Registry: reg})
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(NewHandler(Options{Jobs: eng}))
	t.Cleanup(srv.Close)

	st := postJob(t, srv, JobKindJSAS, `{}`)
	waitJob(t, srv, eng, st.ID)
	for _, r := range reg.Statuses() {
		if r.Kind == "job:jsas" {
			return
		}
	}
	t.Fatalf("no job:jsas run registered; runs: %+v", reg.Statuses())
}

// domainsJSON is the two-rack Config 1 site used by the correlated
// campaign job tests (same shape as models/domains-config1.json).
const domainsJSON = `[
  {"name": "site"},
  {"name": "rack-a", "parent": "site", "as": [0], "hadb": ["0/0", "1/0"]},
  {"name": "rack-b", "parent": "site", "as": [1], "hadb": ["0/1", "1/1"]}
]`

// TestCampaignJobCorrelated runs a correlated campaign through the job
// engine and checks the served per-class decomposition.
func TestCampaignJobCorrelated(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	st := postJob(t, srv, "campaign", `{
		"injections": 300, "seed": 9,
		"commonCauseFraction": 0.15, "partitionFraction": 0.1,
		"domains": `+domainsJSON+`
	}`)
	done := waitJob(t, srv, eng, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("state = %q, want done (error %q)", done.State, done.Error)
	}
	var out struct {
		Injections   int                           `json:"injections"`
		MeasuredBeta float64                       `json:"measuredBeta"`
		Partitions   int                           `json:"partitions"`
		ByClass      map[string]map[string]float64 `json:"byClass"`
	}
	if err := json.Unmarshal(done.Result, &out); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if out.Injections != 300 {
		t.Errorf("injections = %d, want 300", out.Injections)
	}
	if out.MeasuredBeta <= 0 || out.MeasuredBeta >= 1 {
		t.Errorf("measuredBeta = %v, want in (0,1)", out.MeasuredBeta)
	}
	if out.Partitions == 0 {
		t.Error("no partitions reported")
	}
	total := 0
	for _, cs := range out.ByClass {
		total += int(cs["injections"])
	}
	if total != 300 {
		t.Errorf("per-class injections sum to %d, want 300", total)
	}
	if cf := out.ByClass["partition"]["componentFailures"]; cf != 0 {
		t.Errorf("partition componentFailures = %v, want 0", cf)
	}
}

// TestCampaignJobIndependentOmitsCorrelatedFields pins response
// back-compat: without correlated options the response carries none of
// the new keys, byte-for-byte.
func TestCampaignJobIndependentOmitsCorrelatedFields(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	st := postJob(t, srv, "campaign", `{"injections": 100, "seed": 3}`)
	done := waitJob(t, srv, eng, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("state = %q, want done (error %q)", done.State, done.Error)
	}
	for _, key := range []string{"byClass", "measuredBeta", "commonCauseFraction", "partitionFraction", "partitions"} {
		if bytes.Contains(done.Result, []byte(key)) {
			t.Errorf("independent campaign response leaks %q: %s", key, done.Result)
		}
	}
}

func TestCampaignJobCorrelatedValidation(t *testing.T) {
	srv, _ := newJobServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		name       string
		request    string
		wantInBody string
	}{
		{"ccf without domains", `{"injections":10,"commonCauseFraction":0.2}`, "domains"},
		{"ccf out of range", `{"injections":10,"commonCauseFraction":1.5,"domains":` + domainsJSON + `}`, "commonCauseFraction"},
		{"fractions sum above 1", `{"injections":10,"commonCauseFraction":0.6,"partitionFraction":0.6,"domains":` + domainsJSON + `}`, ""},
		{"negative partition", `{"injections":10,"partitionFraction":-0.1}`, "partitionFraction"},
		{"bad domain ref", `{"injections":10,"commonCauseFraction":0.2,"domains":[{"name":"a","hadb":["zz"]}]}`, ""},
		{"domain member out of range", `{"injections":10,"commonCauseFraction":0.2,"domains":[{"name":"a","as":[7]}]}`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := `{"kind":"campaign","request":` + c.request + `}`
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, buf.String())
			}
			if c.wantInBody != "" && !strings.Contains(buf.String(), c.wantInBody) {
				t.Fatalf("400 body %q does not name %q", buf.String(), c.wantInBody)
			}
		})
	}
}
