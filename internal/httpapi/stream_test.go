package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// readSSEEvent reads one SSE event (event name + joined data payload)
// from the stream, skipping keepalive comment blocks.
func readSSEEvent(t *testing.T, br *bufio.Reader) (event string, data []byte) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event != "" || data != nil {
				return event, data
			}
			// End of a comment-only (keepalive) block: keep reading.
		case strings.HasPrefix(line, ":"):
			// Comment field; ignored per the SSE spec.
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		}
	}
}

// TestMetricsStreamSSE drives /v1/metrics/stream end to end over a real
// HTTP connection: the first frame is a full snapshot, a counter bump
// between ticks shows up as a delta frame carrying (at least) the moved
// series, and canceling the request tears the stream down cleanly —
// the handler goroutine exits, observable as the inflight gauge
// returning to its pre-request value.
func TestMetricsStreamSSE(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()

	baseInflight := obsInflight.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/v1/metrics/stream?interval=20ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	br := bufio.NewReader(resp.Body)
	event, data := readSSEEvent(t, br)
	if event != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", event)
	}
	var first streamFrame
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatalf("snapshot frame: %v\n%s", err, data)
	}
	if first.Seq != 0 || len(first.Series) == 0 {
		t.Fatalf("snapshot frame seq=%d series=%d, want seq 0 and a non-empty registry",
			first.Seq, len(first.Series))
	}
	if _, err := time.Parse(time.RFC3339Nano, first.ScrapedAt); err != nil {
		t.Fatalf("snapshot scrapedAt %q unparseable: %v", first.ScrapedAt, err)
	}

	// Move one series; the next data frame must be a delta containing it
	// (and not a full snapshot's worth of unchanged series).
	marker := obs.C("httpapi_stream_test_marker", "test counter for SSE delta frames")
	marker.Inc()
	event, data = readSSEEvent(t, br)
	if event != "delta" {
		t.Fatalf("second event = %q, want delta", event)
	}
	var delta streamFrame
	if err := json.Unmarshal(data, &delta); err != nil {
		t.Fatalf("delta frame: %v\n%s", err, data)
	}
	if delta.Seq < 1 {
		t.Fatalf("delta seq = %d, want ≥ 1", delta.Seq)
	}
	found := false
	for _, s := range delta.Series {
		if s.Name == "httpapi_stream_test_marker" {
			found = true
		}
	}
	if !found {
		t.Fatalf("delta frame missing the moved series: %s", data)
	}
	if len(delta.Series) >= len(first.Series) {
		t.Fatalf("delta carried %d series vs %d in the snapshot — not a delta",
			len(delta.Series), len(first.Series))
	}

	// Client abort: the handler must notice the canceled context and
	// return, releasing its inflight slot.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for obsInflight.Value() != baseInflight {
		if time.Now().After(deadline) {
			t.Fatalf("handler did not exit after client abort: inflight = %g, want %g",
				obsInflight.Value(), baseInflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsStreamShedExempt: with MaxInflight=1 and the solve slot
// held by a deliberately stalled request, solve routes shed with 429 but
// the metrics stream still answers — an overloaded server must stay
// watchable.
func TestMetricsStreamShedExempt(t *testing.T) {
	// The wrapper counts POST /v1/solve handler returns. A stall request
	// whose handler returns before its pipe is closed never held the slot:
	// it lost the race to a concurrent probe and was shed.
	h := NewHandler(Options{MaxInflight: 1})
	var stallsReturned atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			stallsReturned.Add(1)
		}
	}))
	defer srv.Close()

	// Hold the semaphore: POST /v1/solve with a body that never arrives
	// keeps its handler parked inside the read while owning the slot. A
	// shed stall is parked too — the server drains its unread body before
	// sending the 429 — so every pipe must be closed on every exit path,
	// before srv.Close waits on those connections.
	var pipes []*io.PipeWriter
	var stalls sync.WaitGroup
	release := func() {
		for _, pw := range pipes {
			pw.Close()
		}
		stalls.Wait()
	}
	defer release()
	stall := func() {
		pr, pw := io.Pipe()
		pipes = append(pipes, pw)
		stallReq, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve", pr)
		if err != nil {
			t.Fatal(err)
		}
		stalls.Add(1)
		go func() {
			defer stalls.Done()
			resp, err := http.DefaultClient.Do(stallReq)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	stall()

	// The slot is held once a probe solve request sheds with 429: the
	// probes run one at a time, so only a parked stall can hold it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if stallsReturned.Load() == int64(len(pipes)) {
			stall()
		}
		resp, err := http.Get(srv.URL + "/v1/jsas?instances=2&pairs=2")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve queue never saturated: last status %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The stream is exempt: it must deliver its snapshot frame while the
	// solve queue is full.
	streamCtx, streamCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer streamCancel()
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet,
		srv.URL+"/v1/metrics/stream?interval=50ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream while saturated: status = %d, want 200", resp.StatusCode)
	}
	event, _ := readSSEEvent(t, bufio.NewReader(resp.Body))
	if event != "snapshot" {
		t.Fatalf("stream while saturated: first event = %q, want snapshot", event)
	}
	streamCancel()

	// And /v1/runs is exempt too.
	runsResp, err := http.Get(srv.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	runsResp.Body.Close()
	if runsResp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/runs while saturated: status = %d, want 200", runsResp.StatusCode)
	}

	// Release the stalled solves: closing a pipe ends its body, the
	// handler fails the parse (a 400 we don't care about), and the slot
	// frees. A context cancel would not do — the transport's body read
	// on the pipe is not interruptible.
	release()
}

// TestStreamIntervalValidation: malformed or out-of-range intervals are
// rejected before any streaming starts.
func TestStreamIntervalValidation(t *testing.T) {
	t.Parallel()
	for _, q := range []string{"interval=bogus", "interval=1ms", "interval=2h"} {
		res, body := doRequestWith(t, Options{}, http.MethodGet, "/v1/metrics/stream?"+q, nil)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s: status = %d, want 400 (%s)", q, res.StatusCode, body)
		}
	}
}

// TestRunsReportsUncertaintySolve: a completed uncertainty request shows
// up in /v1/runs as a done run with full completion accounting from the
// tracker the handler wired through the driver.
func TestRunsReportsUncertaintySolve(t *testing.T) {
	const seed = 987654
	res, _ := doRequestWith(t, Options{}, http.MethodGet,
		fmt.Sprintf("/v1/jsas/uncertainty?samples=50&seed=%d", seed), nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("uncertainty solve: status = %d", res.StatusCode)
	}

	res, body := doRequestWith(t, Options{}, http.MethodGet, "/v1/runs", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/v1/runs: status = %d", res.StatusCode)
	}
	var out struct {
		Runs []struct {
			Kind      string  `json:"kind"`
			Detail    string  `json:"detail"`
			State     string  `json:"state"`
			Completed int64   `json:"completed"`
			Total     int64   `json:"total"`
			Fraction  float64 `json:"fraction"`
			StatName  string  `json:"statName"`
			StatN     int64   `json:"statN"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/v1/runs body: %v\n%s", err, body)
	}
	want := fmt.Sprintf("seed=%d", seed)
	for _, r := range out.Runs {
		if r.Kind != "uncertainty" || !strings.Contains(r.Detail, want) {
			continue
		}
		if r.State != "done" {
			t.Fatalf("run state = %q, want done", r.State)
		}
		if r.Completed != 50 || r.Total != 50 || r.Fraction != 1 {
			t.Fatalf("run accounting %d/%d (%.2f), want 50/50 (1.00)", r.Completed, r.Total, r.Fraction)
		}
		if r.StatName != "downtimeMin" || r.StatN != 50 {
			t.Fatalf("run stat %s n=%d, want downtimeMin n=50", r.StatName, r.StatN)
		}
		return
	}
	t.Fatalf("no uncertainty run with %q in /v1/runs:\n%s", want, body)
}

// TestHealthzCarriesBuildInfo: /healthz reports liveness plus build
// identity and uptime, and the uptime gauge is refreshed by the scrape.
func TestHealthzCarriesBuildInfo(t *testing.T) {
	res, body := doRequestWith(t, Options{}, http.MethodGet, "/healthz", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status = %d", res.StatusCode)
	}
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if hz.Status != "ok" {
		t.Fatalf("status = %q, want ok", hz.Status)
	}
	if !strings.HasPrefix(hz.GoVersion, "go") {
		t.Fatalf("goVersion = %q, want a go version string", hz.GoVersion)
	}
	if hz.UptimeSeconds <= 0 {
		t.Fatalf("uptimeSeconds = %g, want > 0", hz.UptimeSeconds)
	}
	if got := obsUptime.Value(); got <= 0 {
		t.Fatalf("avail_server_uptime_seconds = %g after scrape, want > 0", got)
	}
}
