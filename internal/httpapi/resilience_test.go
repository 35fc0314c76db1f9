package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bayes"
	"repro/internal/ctmc"
	"repro/internal/hier"
	"repro/internal/spec"
)

// TestStatusForSolveError pins the full error taxonomy: client aborts map
// to 499, model-domain failures to 422, everything else to 500 — wrapped
// or not.
func TestStatusForSolveError(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"canceled", context.Canceled, StatusClientClosedRequest},
		{"deadline", context.DeadlineExceeded, StatusClientClosedRequest},
		{"wrapped canceled", fmt.Errorf("solve: %w", context.Canceled), StatusClientClosedRequest},
		{"not irreducible", ctmc.ErrNotIrreducible, http.StatusUnprocessableEntity},
		{"bad model", ctmc.ErrBadModel, http.StatusUnprocessableEntity},
		{"bad spec", spec.ErrBadSpec, http.StatusUnprocessableEntity},
		{"bn intractable", bayes.ErrIntractable, http.StatusUnprocessableEntity},
		{"bad network", bayes.ErrBadNetwork, http.StatusUnprocessableEntity},
		{"bad component", hier.ErrBadComponent, http.StatusUnprocessableEntity},
		{"wrapped domain", fmt.Errorf("model %q: %w", "x", ctmc.ErrBadModel), http.StatusUnprocessableEntity},
		{"generic", errors.New("boom"), http.StatusInternalServerError},
		{"nil-ish wrapped", fmt.Errorf("outer: %w", errors.New("inner")), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusForSolveError(c.err); got != c.want {
			t.Errorf("%s: statusForSolveError = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestBoundedParams sweeps the work-sizing query parameters across their
// edges: in-range values solve, out-of-range values are rejected with a
// 400 naming the offending parameter.
func TestBoundedParams(t *testing.T) {
	t.Parallel()
	cases := []struct {
		query      string
		wantStatus int
		wantInBody string
	}{
		{"instances=3&pairs=2&spares=1", http.StatusOK, ""},
		{"instances=0", http.StatusBadRequest, "instances"},
		{"instances=-1", http.StatusBadRequest, "instances"},
		{fmt.Sprintf("instances=%d", maxDenseInstances+1), http.StatusBadRequest, "instances"},
		{"pairs=-1", http.StatusBadRequest, "pairs"},
		{fmt.Sprintf("pairs=%d", maxPairs+1), http.StatusBadRequest, "pairs"},
		{"spares=-1", http.StatusBadRequest, "spares"},
		{fmt.Sprintf("spares=%d", maxSpares+1), http.StatusBadRequest, "spares"},
	}
	for _, c := range cases {
		res, body := doRequest(t, http.MethodGet, "/v1/jsas?"+c.query, "")
		if res.StatusCode != c.wantStatus {
			t.Errorf("/v1/jsas?%s: status = %d, want %d (body %s)", c.query, res.StatusCode, c.wantStatus, body)
			continue
		}
		if c.wantInBody != "" && !strings.Contains(string(body), c.wantInBody) {
			t.Errorf("/v1/jsas?%s: body %s does not name %q", c.query, body, c.wantInBody)
		}
	}
	// The uncertainty endpoint shares the caps for instances/pairs and
	// bounds samples.
	uncCases := []struct {
		query      string
		wantInBody string
	}{
		{fmt.Sprintf("instances=%d", maxDenseInstances+1), "instances"},
		{fmt.Sprintf("pairs=%d", maxPairs+1), "pairs"},
		{"samples=0", "samples"},
		{fmt.Sprintf("samples=%d", maxUncertaintySamples+1), "samples"},
	}
	for _, c := range uncCases {
		res, body := doRequest(t, http.MethodGet, "/v1/jsas/uncertainty?"+c.query, "")
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/jsas/uncertainty?%s: status = %d, want 400", c.query, res.StatusCode)
			continue
		}
		if !strings.Contains(string(body), c.wantInBody) {
			t.Errorf("/v1/jsas/uncertainty?%s: body %s does not name %q", c.query, body, c.wantInBody)
		}
	}
}

// TestSolveCanceledRequestIs499: a request whose context is already
// canceled gets the 499 client-closed-request status, not a 5xx.
func TestSolveCanceledRequestIs499(t *testing.T) {
	t.Parallel()
	h := NewHandler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(flatModel)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled solve: status = %d, want %d (body %s)", rec.Code, StatusClientClosedRequest, rec.Body)
	}
}

// TestPanicRecovery: a panicking handler becomes a 500 with the error
// envelope, the process survives, and the panic counter moves.
func TestPanicRecovery(t *testing.T) {
	t.Parallel()
	before := obsPanics.Value()
	h := instrument("/panic-test", recovered(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/panic-test", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic response: status = %d, want 500", rec.Code)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("panic body is not the error envelope: %v (%s)", err, rec.Body)
	}
	if !strings.Contains(resp.Error, "internal error") {
		t.Errorf("panic body = %q", resp.Error)
	}
	if got := obsPanics.Value(); got != before+1 {
		t.Errorf("httpapi_panics_total moved %v -> %v, want +1", before, got)
	}
}

// TestPanicAfterWriteDoesNotClobberResponse: once the handler has started
// the response, recovery must not attempt a second status line.
func TestPanicAfterWriteDoesNotClobberResponse(t *testing.T) {
	t.Parallel()
	h := instrument("/panic-late-test", recovered(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte("partial"))
		panic("late kaboom")
	}))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/panic-late-test", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("late panic rewrote the status: %d, want 202", rec.Code)
	}
	if got := rec.Body.String(); got != "partial" {
		t.Errorf("late panic altered the body: %q", got)
	}
}

// TestPanicAbortHandlerPropagates: http.ErrAbortHandler is net/http
// control flow and must pass through the recovery middleware untouched.
func TestPanicAbortHandlerPropagates(t *testing.T) {
	t.Parallel()
	h := recovered(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", p)
		}
	}()
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Fatal("handler did not re-panic")
}

// TestLimiterSheds: with MaxInflight=1 a second concurrent request is
// rejected with 429 + Retry-After while the first is still being served,
// and capacity is restored once it finishes.
func TestLimiterSheds(t *testing.T) {
	t.Parallel()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	shed := limiter(1)
	h := shed(func(w http.ResponseWriter, _ *http.Request) {
		// Only the first request blocks; later requests (after release)
		// complete immediately.
		once.Do(func() {
			close(entered)
			<-release
		})
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	first := httptest.NewRecorder()
	go func() {
		defer wg.Done()
		h(first, httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	<-entered

	second := httptest.NewRecorder()
	beforeRejected := obsRejected.Value()
	h(second, httptest.NewRequest(http.MethodGet, "/", nil))
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: status = %d, want 429", second.Code)
	}
	if second.Result().Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}
	if got := obsRejected.Value(); got != beforeRejected+1 {
		t.Errorf("httpapi_requests_rejected_total moved %v -> %v, want +1", beforeRejected, got)
	}

	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status = %d, want 200", first.Code)
	}

	// Capacity restored: a fresh request is served, not shed.
	third := httptest.NewRecorder()
	h(third, httptest.NewRequest(http.MethodGet, "/", nil))
	if third.Code != http.StatusOK {
		t.Fatalf("third request after release: status = %d, want 200", third.Code)
	}
}

// TestLimiterDisabled: MaxInflight <= 0 means no shedding at all.
func TestLimiterDisabled(t *testing.T) {
	t.Parallel()
	shed := limiter(0)
	h := shed(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("limiter(0): status = %d, want 200", rec.Code)
	}
}

// TestRetryAfterValue: the job-queue 429 hint renders observed service
// time as whole seconds rounded up, never below 1, and falls back to the
// sync-path constant when no job has completed yet.
func TestRetryAfterValue(t *testing.T) {
	t.Parallel()
	cases := []struct {
		hint time.Duration
		want string
	}{
		{0, syncRetryAfter},
		{-time.Second, syncRetryAfter},
		{200 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{30 * time.Second, "30"},
		{59*time.Second + time.Millisecond, "60"},
	}
	for _, c := range cases {
		if got := retryAfterValue(c.hint); got != c.want {
			t.Errorf("retryAfterValue(%v) = %q, want %q", c.hint, got, c.want)
		}
	}
}

// TestWriteJSONCountsEncodeFailures: an encode failure after the header
// is on the wire cannot change the status anymore, but it must move the
// failure counter instead of disappearing.
func TestWriteJSONCountsEncodeFailures(t *testing.T) {
	before := obsEncodeFailures.Value()
	writeJSON(httptest.NewRecorder(), http.StatusOK, func() {}) // unencodable
	if got := obsEncodeFailures.Value(); got != before+1 {
		t.Fatalf("httpapi_response_encode_failures_total moved %d -> %d, want +1", before, got)
	}
	writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]int{"ok": 1})
	if got := obsEncodeFailures.Value(); got != before+1 {
		t.Fatalf("successful encode moved the failure counter to %d", got)
	}
}

// TestHandlerWithMaxInflightServesHealthz: an overloaded server must stay
// diagnosable — /healthz and /metrics are never behind the semaphore.
func TestHandlerWithMaxInflightServesHealthz(t *testing.T) {
	t.Parallel()
	res, _ := doRequestWith(t, Options{MaxInflight: 1}, http.MethodGet, "/healthz", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with MaxInflight: status = %d", res.StatusCode)
	}
	res, _ = doRequestWith(t, Options{MaxInflight: 1}, http.MethodGet, "/metrics", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics with MaxInflight: status = %d", res.StatusCode)
	}
}
