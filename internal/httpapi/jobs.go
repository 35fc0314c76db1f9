// Async job API: POST /v1/jobs canonicalizes a request to a stable
// content hash and submits it to the jobs engine; GET /v1/jobs/{id}
// polls status and result; GET /v1/jobs/{id}/stream pushes live status
// frames over Server-Sent Events. Every job kind but "campaign" shares
// its task with a synchronous endpoint (see kinds.go; a 100k-injection
// campaign does not belong in a request/response cycle), and because
// every kind is a deterministic function of its canonicalized request,
// a repeat submission is served from cache byte-identically to a fresh
// solve and identical concurrent submissions coalesce into one
// computation.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/progress"
)

// Job kinds accepted by POST /v1/jobs.
const (
	JobKindSolve          = "solve"
	JobKindSolveHierarchy = "solve-hierarchy"
	JobKindJSAS           = "jsas"
	JobKindUncertainty    = "uncertainty"
	JobKindCampaign       = "campaign"
	JobKindBayes          = "bayes"
)

// jobKindsHelp lists the valid kinds for 400 bodies.
const jobKindsHelp = "solve, solve-hierarchy, jsas, uncertainty, campaign, bayes"

// jobSubmitRequest is the POST /v1/jobs envelope.
type jobSubmitRequest struct {
	Kind string `json:"kind"`
	// Request is the kind-specific payload: a spec.Document for "solve"
	// and "bayes", a spec.HierDocument for "solve-hierarchy", parameter
	// objects for "jsas" / "uncertainty" / "campaign". Omitted = {} (kind
	// defaults).
	Request json.RawMessage `json:"request"`
}

// CampaignResponse is the JSON result of a fault-injection campaign job.
type CampaignResponse struct {
	Instances   int     `json:"instances"`
	Pairs       int     `json:"pairs"`
	Spares      int     `json:"spares"`
	Injections  int     `json:"injections"`
	Replicas    int     `json:"replicas"`
	Seed        int64   `json:"seed"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"successRate"`
	// CoverageBounds are the Equation (1) coverage/FIR bounds over the
	// pooled injections at the default confidences.
	CoverageBounds []CoverageBoundResponse `json:"coverageBounds"`
	Availability   float64                 `json:"availability"`
	DowntimeMin    float64                 `json:"downtimeMinutes"`
	Outages        int                     `json:"outages"`

	// Correlated-campaign extensions, present only when the request set a
	// common-cause or partition fraction (omitted otherwise, keeping
	// independent-campaign responses byte-identical to earlier versions).
	CommonCauseFraction float64                       `json:"commonCauseFraction,omitempty"`
	PartitionFraction   float64                       `json:"partitionFraction,omitempty"`
	MeasuredBeta        float64                       `json:"measuredBeta,omitempty"`
	Partitions          int                           `json:"partitions,omitempty"`
	ByClass             map[string]ClassStatsResponse `json:"byClass,omitempty"`
}

// ClassStatsResponse decomposes a correlated campaign along one cause
// class.
type ClassStatsResponse struct {
	Injections        int     `json:"injections"`
	Successes         int     `json:"successes"`
	ComponentFailures int     `json:"componentFailures"`
	DowntimeMinutes   float64 `json:"downtimeMinutes"`
}

// CoverageBoundResponse is one Equation (1) bound.
type CoverageBoundResponse struct {
	Confidence         float64 `json:"confidence"`
	CoverageLowerBound float64 `json:"coverageLowerBound"`
	FIRUpperBound      float64 `json:"firUpperBound"`
}

// jobAPI binds the job handlers to an engine.
type jobAPI struct {
	engine *jobs.Engine
}

// RunRegistry returns the progress registry backing GET /v1/runs, so an
// externally constructed jobs engine (cmd/avail-server) can surface its
// jobs on the same runs listing as the synchronous handlers.
func RunRegistry() *progress.Registry { return serverRuns }

// trailingData reports anything but whitespace after the value dec has
// just decoded: one envelope per request, as spec.Parse allows one
// document.
func trailingData(dec *json.Decoder) error {
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err == nil:
		err = errors.New("another value")
	}
	return fmt.Errorf("trailing data after the envelope: %w", err)
}

// handleJobSubmit validates and canonicalizes the request, submits it,
// and answers 202 with the observing job's status (result stripped: the
// result, cached or fresh, is served by GET /v1/jobs/{id}). A full queue
// answers 429 with a Retry-After derived from observed job service time.
func (a *jobAPI) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var env jobSubmitRequest
	err := dec.Decode(&env)
	if err == nil {
		err = trailingData(dec)
	}
	if err != nil {
		if bodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("job request exceeds %d bytes", maxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("job envelope: %w", err))
		return
	}
	canonical, task, err := buildJobTask(env.Kind, env.Request)
	if err == nil {
		task.Hash, err = jobs.CanonicalHash(env.Kind, canonical)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := a.engine.Submit(task)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterValue(a.engine.RetryAfter()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full; retry later"))
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	st.Result = nil
	w.Header().Set("Location", "/v1/jobs/"+strconv.FormatInt(st.ID, 10))
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobList reports every retained job, newest first, without
// result payloads.
func (a *jobAPI) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": a.engine.Statuses()})
}

// jobID parses the {id} path value.
func jobID(r *http.Request) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("job id: want an integer, got %q", r.PathValue("id"))
	}
	return id, nil
}

// handleJobGet polls one job: status, live progress, and — once done —
// the result, byte-identical whether computed or cached.
func (a *jobAPI) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, ok := a.engine.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %d not found (never assigned, or GC'd)", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobStream follows one job over Server-Sent Events: an immediate
// status frame, one per ?interval= tick while the job runs (carrying
// tracker progress), and a final "done" frame with the result, sent the
// moment the job ends rather than at the next tick. The handler holds
// the job record, so a job GC'd mid-stream still gets its done frame.
// Reuses the metrics-stream pacing and write-deadline machinery.
func (a *jobAPI) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	interval, err := streamInterval(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	done, status, ok := a.engine.Watch(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %d not found", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented,
			errors.New("streaming unsupported: response writer cannot flush"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	extendDeadline := func() {
		_ = rc.SetWriteDeadline(time.Now().Add(interval + streamWriteGrace))
	}

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		extendDeadline()
		st := status()
		if st.State == jobs.StateDone || st.State == jobs.StateFailed {
			_ = writeSSEEvent(w, "done", st)
			fl.Flush()
			return
		}
		st.Result = nil
		if err := writeSSEEvent(w, "status", st); err != nil {
			return
		}
		fl.Flush()
		// The job's end wakes the wait at once; the next pass then reads
		// the final status, which the engine sets before closing done.
		select {
		case <-r.Context().Done():
			return
		case <-done:
		case <-ticker.C:
		}
	}
}

// writeSSEEvent emits one Server-Sent Events frame. The JSON payload is
// a single line (encoding/json never emits raw newlines), so one data:
// field suffices.
func writeSSEEvent(w io.Writer, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}
