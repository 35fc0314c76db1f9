// Resilience middleware for the HTTP API: panic containment, semaphore
// load shedding, and solve-error status mapping. The service must degrade
// the way the modeled application server does — one bad request costs
// that request, never the process, and overload sheds with an honest
// signal instead of queueing without bound.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bayes"
	"repro/internal/ctmc"
	"repro/internal/hier"
	"repro/internal/jsas"
	"repro/internal/obs"
	"repro/internal/spec"
)

// StatusClientClosedRequest is the nonstandard 499 status (nginx
// convention) recorded when a solve was aborted because the client went
// away: the failure is the caller's disconnect, not the server's — a 5xx
// here would page an operator for a client that hung up.
const StatusClientClosedRequest = 499

// Resilience metrics, reported to the default obs registry.
var (
	obsPanics = obs.C("httpapi_panics_total",
		"handler panics converted to 500 responses")
	obsRejected = obs.C("httpapi_requests_rejected_total",
		"requests shed with 429 because the solve queue was full")
	obsInflight = obs.G("httpapi_inflight_requests",
		"requests currently being served")
)

// recovered converts a handler panic into a 500 response plus a counter
// increment, keeping the process alive: one malformed model document (or
// engine bug) must cost one request, not the server. http.ErrAbortHandler
// is re-raised — it is net/http's own control flow for deliberately
// dropped connections, not a failure.
func recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			obsPanics.Inc()
			// Best-effort 500: once the handler has started the response
			// the status is already on the wire and cannot be replaced.
			if rec, ok := w.(*statusRecorder); !ok || !rec.wrote {
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error: %v", p))
			}
		}()
		h(w, r)
	}
}

// limiter returns a middleware bounding concurrent requests to max via a
// semaphore: requests beyond the cap are shed immediately with 429 and a
// Retry-After hint rather than queued (a queued solve still burns the
// CPU its client may no longer be waiting for). max <= 0 disables
// shedding. One limiter instance is shared by every route it wraps, so
// the cap is on the whole solve queue, not per route.
func limiter(max int) func(http.HandlerFunc) http.HandlerFunc {
	if max <= 0 {
		return func(h http.HandlerFunc) http.HandlerFunc { return h }
	}
	sem := make(chan struct{}, max)
	return func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				h(w, r)
			default:
				obsRejected.Inc()
				w.Header().Set("Retry-After", syncRetryAfter)
				writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("solve queue full (%d requests in flight); retry later", max))
			}
		}
	}
}

// syncRetryAfter is the constant Retry-After for the synchronous shed
// path: a shed sync request frees its slot as soon as any in-flight
// solve finishes, and the limiter has no service-time signal to do
// better — so it stays the fallback, not the job-queue answer.
const syncRetryAfter = "1"

// retryAfterValue renders a Retry-After header from an observed
// service-time hint (jobs.Engine.RetryAfter): whole seconds, rounded
// up, never below 1. A zero hint means no job has completed yet, so
// there is nothing better than the sync-path constant.
func retryAfterValue(hint time.Duration) string {
	if hint <= 0 {
		return syncRetryAfter
	}
	secs := int64(math.Ceil(hint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// statusForSolveError maps solve failures onto the response taxonomy:
// client-abort (the request context was canceled) to 499, request
// defects found only once the task runs (a model that fails to build, a
// JSAS configuration the solver rejects) to 400, model-domain failures
// (well-formed but unsolvable documents) to 422, and everything else to
// 500.
func statusForSolveError(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return StatusClientClosedRequest
	case errors.Is(err, jsas.ErrBadConfig), errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.Is(err, ctmc.ErrNotIrreducible), errors.Is(err, ctmc.ErrBadModel),
		errors.Is(err, spec.ErrBadSpec), errors.Is(err, bayes.ErrIntractable),
		errors.Is(err, bayes.ErrBadNetwork), errors.Is(err, hier.ErrBadComponent):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// bodyTooLarge reports whether err (however wrapped) came from
// http.MaxBytesReader tripping its limit, i.e. the request body
// overflowed and the right answer is 413 rather than a generic 400.
func bodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
