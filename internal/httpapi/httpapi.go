// Package httpapi exposes the modeling engine as a small JSON-over-HTTP
// service, so the solver can back dashboards and capacity planners without
// linking Go code: POST a model document, get availability measures back.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/spec"
	"repro/internal/trace"
)

// maxBodyBytes bounds accepted request bodies (model documents are small).
const maxBodyBytes = 1 << 20

// SolveResponse is the JSON result for a flat model solve.
type SolveResponse struct {
	Model                 string             `json:"model"`
	States                int                `json:"states"`
	Availability          float64            `json:"availability"`
	ExpectedReward        float64            `json:"expectedReward"`
	YearlyDowntimeMinutes float64            `json:"yearlyDowntimeMinutes"`
	MTBFHours             float64            `json:"mtbfHours,omitempty"`
	LambdaEq              float64            `json:"lambdaEqPerHour"`
	MuEq                  float64            `json:"muEqPerHour"`
	Pi                    map[string]float64 `json:"steadyState"`
}

// BackendSolveResponse is the JSON result for a multi-backend solve: a
// redundancy-structure document routed through the common
// backend.AvailabilityModel interface (?backend=ctmc|bayes on
// POST /v1/solve). Size counts CTMC states or BN variables depending on
// the backend that solved it.
type BackendSolveResponse struct {
	Model                 string  `json:"model"`
	Backend               string  `json:"backend"`
	Size                  int     `json:"size"`
	Availability          float64 `json:"availability"`
	YearlyDowntimeMinutes float64 `json:"yearlyDowntimeMinutes"`
}

// HierSolveResponse is the JSON result for a hierarchical solve.
type HierSolveResponse struct {
	Name                  string              `json:"name"`
	Availability          float64             `json:"availability"`
	YearlyDowntimeMinutes float64             `json:"yearlyDowntimeMinutes"`
	LambdaEq              float64             `json:"lambdaEqPerHour"`
	MuEq                  float64             `json:"muEqPerHour"`
	Children              []HierSolveResponse `json:"children,omitempty"`
}

// JSASResponse is the JSON result for a JSAS configuration solve.
type JSASResponse struct {
	Instances             int     `json:"instances"`
	Pairs                 int     `json:"pairs"`
	Spares                int     `json:"spares"`
	Availability          float64 `json:"availability"`
	YearlyDowntimeMinutes float64 `json:"yearlyDowntimeMinutes"`
	DowntimeASMinutes     float64 `json:"downtimeASMinutes"`
	DowntimeHADBMinutes   float64 `json:"downtimeHADBMinutes"`
	MTBFHours             float64 `json:"mtbfHours"`
}

// UncertaintyResponse is the JSON result for a JSAS uncertainty analysis.
type UncertaintyResponse struct {
	Instances       int     `json:"instances"`
	Pairs           int     `json:"pairs"`
	Samples         int     `json:"samples"`
	MeanDowntimeMin float64 `json:"meanDowntimeMinutes"`
	CI80Low         float64 `json:"ci80Low"`
	CI80High        float64 `json:"ci80High"`
	CI90Low         float64 `json:"ci90Low"`
	CI90High        float64 `json:"ci90High"`
	// FractionFiveNines is the share of sampled deployments above
	// 99.999% availability.
	FractionFiveNines float64 `json:"fractionFiveNines"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Options configures optional handler features.
type Options struct {
	// PProf mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/. Off by default: the profiler exposes stacks and heap
	// contents and belongs behind an explicit operator opt-in.
	PProf bool
	// MaxInflight caps how many solve requests (the /v1/* compute
	// endpoints) run concurrently; requests beyond the cap are shed with
	// 429 + Retry-After instead of queueing. 0 (the default) means
	// unlimited. Liveness and observability endpoints (/healthz,
	// /metrics, /v1/metrics/stream, /v1/runs, /v1/traces) are never shed
	// — an overloaded server must stay diagnosable.
	MaxInflight int
	// Jobs supplies the async engine behind the /v1/jobs endpoints. nil
	// builds one from JobConfig, registered on the server run registry,
	// whose workers live for the life of the process. Callers that need
	// to stop the workers (tests, cmd/avail-server's shutdown path)
	// construct their own engine and Close it themselves.
	Jobs *jobs.Engine
	// JobConfig tunes the handler-built engine when Jobs is nil.
	JobConfig jobs.Config
}

// NewHandler returns the service's HTTP handler:
//
//	GET  /healthz               liveness probe (build identity + uptime)
//	GET  /metrics               engine + request metrics (Prometheus text;
//	                            ?format=json or Accept: application/json
//	                            for the JSON snapshot)
//	GET  /v1/metrics/stream     metrics over Server-Sent Events: a full
//	                            snapshot frame, then per-series deltas
//	                            each ?interval= tick (default 1s)
//	GET  /v1/runs               in-flight and recent tracked requests
//	                            with completion, rate, and ETA
//	POST /v1/jobs               submit an async job ({"kind", "request"});
//	                            202 + job ID, deduplicated by canonical
//	                            request hash (cache + single-flight)
//	GET  /v1/jobs               retained jobs, newest first (no results)
//	GET  /v1/jobs/{id}          job status, progress, and result
//	GET  /v1/jobs/{id}/stream   job status over Server-Sent Events: one
//	                            status frame per ?interval= tick while
//	                            the job runs, and a done frame the moment
//	                            it ends (the stream ends with the job)
//	POST /v1/solve              flat spec.Document → SolveResponse;
//	                            redundancy documents (or ?backend=bayes)
//	                            → BackendSolveResponse via the selected
//	                            solver backend (job kind "solve", or
//	                            "bayes" for ?backend=bayes)
//	POST /v1/solve-hierarchy    spec.HierDocument → HierSolveResponse
//	                            (job kind "solve-hierarchy")
//	GET  /v1/jsas               ?instances=&pairs=&spares= → JSASResponse
//	                            (job kind "jsas")
//	GET  /v1/jsas/uncertainty   ?instances=&pairs=&samples=&seed= →
//	                            UncertaintyResponse (job kind "uncertainty")
//	GET  /v1/traces             trace IDs retained by the flight recorder
//	GET  /v1/traces/{id}        one trace's spans (JSON; ?format=chrome
//	                            for Chrome trace_event, ?format=timeline
//	                            for plain text, ?format=jsonl)
//
// Each sync compute route runs its job kind's task inline (see kinds.go):
// its 200 body is that job's result plus a newline.
//
// With Options.PProf the net/http/pprof endpoints are mounted at
// /debug/pprof/.
func NewHandler(opts ...Options) http.Handler {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	// Every route gets panic containment inside its instrumentation (so a
	// panic is counted both as a panic and as a 500); the compute routes
	// additionally share one load-shedding semaphore.
	shed := limiter(o.MaxInflight)
	eng := o.Jobs
	if eng == nil {
		jc := o.JobConfig
		if jc.Registry == nil {
			jc.Registry = serverRuns
		}
		eng = jobs.New(jc)
	}
	ja := &jobAPI{engine: eng}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", instrument("/healthz", recovered(handleHealthz)))
	mux.HandleFunc("GET /metrics", instrument("/metrics", recovered(handleMetrics)))
	mux.HandleFunc("GET /v1/metrics/stream", instrument("/v1/metrics/stream", recovered(handleMetricsStream)))
	mux.HandleFunc("GET /v1/runs", instrument("/v1/runs", recovered(handleRuns)))
	// The job endpoints are not behind the sync-path semaphore: POST is
	// cheap validation + enqueue whose backpressure is the bounded job
	// queue itself (429 + service-time Retry-After when full), and the
	// GET surfaces are observability.
	mux.HandleFunc("POST /v1/jobs", instrument("/v1/jobs", recovered(ja.handleJobSubmit)))
	mux.HandleFunc("GET /v1/jobs", instrument("/v1/jobs", recovered(ja.handleJobList)))
	mux.HandleFunc("GET /v1/jobs/{id}", instrument("/v1/jobs/id", recovered(ja.handleJobGet)))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", instrument("/v1/jobs/id/stream", recovered(ja.handleJobStream)))
	mux.HandleFunc("POST /v1/solve", instrument("/v1/solve",
		recovered(shed(syncRoute("model document", decodeSolve)))))
	mux.HandleFunc("POST /v1/solve-hierarchy", instrument("/v1/solve-hierarchy",
		recovered(shed(syncRoute("hierarchy document", decodeSolveHierarchy)))))
	mux.HandleFunc("GET /v1/jsas", instrument("/v1/jsas", recovered(shed(syncRoute("", decodeJSAS)))))
	mux.HandleFunc("GET /v1/jsas/uncertainty", instrument("/v1/jsas/uncertainty",
		recovered(shed(syncRoute("", decodeUncertainty)))))
	mux.HandleFunc("GET /v1/traces", instrument("/v1/traces", recovered(handleTraceList)))
	mux.HandleFunc("GET /v1/traces/{id}", instrument("/v1/traces/id", recovered(handleTraceGet)))
	if o.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the response status for error accounting, and
// whether the response has started — the panic-recovery middleware can
// only substitute a 500 while nothing is on the wire yet.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.wrote = true
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true // implicit 200 on first write
	return r.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so streaming handlers (SSE)
// can push frames through the instrumentation wrapper; without this the
// wrapper would hide the http.Flusher and every frame would sit in the
// server's buffer until the handler returned.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers can extend the server's write deadline per frame
// instead of dying at the global WriteTimeout.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with per-route observability: request and
// error counters plus a latency histogram, all in the default registry
// (and therefore visible at GET /metrics).
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	label := fmt.Sprintf("route=%q", route)
	requests := obs.C("httpapi_requests_total", "requests served by route", label)
	errors4xx5xx := obs.C("httpapi_errors_total", "responses with status >= 400 by route", label)
	latency := obs.H("httpapi_request_seconds", "request latency by route", obs.DurationBuckets, label)
	return func(w http.ResponseWriter, r *http.Request) {
		defer obs.Since(latency)()
		obsInflight.Add(1)
		defer obsInflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		requests.Inc()
		if rec.status >= 400 {
			errors4xx5xx.Inc()
		}
	}
}

// metricsFormatHelp is the 406 body listing the supported representations.
const metricsFormatHelp = "unsupported metrics format; supported: Prometheus text " +
	"(default; Accept: text/plain) and JSON (?format=json or Accept: application/json)"

// metricsFormat resolves the requested /metrics representation from the
// ?format override and the Accept header. It returns "text", "json", or
// "" for an unsatisfiable request.
func metricsFormat(r *http.Request) string {
	switch r.URL.Query().Get("format") {
	case "json":
		return "json"
	case "text", "prometheus":
		return "text"
	case "":
	default:
		return ""
	}
	accept := r.Header.Get("Accept")
	if accept == "" {
		return "text"
	}
	jsonOK, textOK, wildcard := false, false, false
	for _, part := range strings.Split(accept, ",") {
		switch strings.TrimSpace(strings.SplitN(part, ";", 2)[0]) {
		case "application/json", "application/*":
			jsonOK = true
		case "text/plain", "text/*":
			textOK = true
		case "*/*", "":
			wildcard = true
		}
	}
	switch {
	case textOK, wildcard:
		return "text"
	case jsonOK:
		return "json"
	}
	return ""
}

// handleMetrics serves the default obs registry: Prometheus text
// exposition by default, the JSON snapshot for ?format=json or
// Accept: application/json, 406 for anything else.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	touchUptime()
	switch metricsFormat(r) {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.Default().WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default().WriteText(w)
	default:
		writeError(w, http.StatusNotAcceptable, errors.New(metricsFormatHelp))
	}
}

// handleTraceList reports the trace IDs currently retained by the
// process-wide flight recorder.
func handleTraceList(w http.ResponseWriter, _ *http.Request) {
	ids := trace.Default().TraceIDs()
	if ids == nil {
		ids = []trace.SpanID{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":  ids,
		"dropped": trace.Default().Dropped(),
	})
}

// handleTraceGet serves one trace's spans: JSON array by default,
// Chrome trace_event with ?format=chrome, plain-text timeline with
// ?format=timeline, JSONL with ?format=jsonl.
func handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("trace id: want an integer, got %q", r.PathValue("id")))
		return
	}
	spans := trace.Default().TraceSpans(trace.SpanID(id))
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %d not found", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, spans)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChromeTrace(w, spans)
	case "timeline":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = trace.WriteTimeline(w, spans)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, spans)
	default:
		writeError(w, http.StatusNotAcceptable,
			fmt.Errorf("unsupported trace format %q; supported: json, chrome, timeline, jsonl", format))
	}
}

func solveResponse(name string, s *reward.Structure, res *reward.Result) SolveResponse {
	m := s.Model()
	pi := make(map[string]float64, m.NumStates())
	for _, st := range m.States() {
		pi[m.Name(st)] = res.Pi[st]
	}
	return SolveResponse{
		Model:                 name,
		States:                m.NumStates(),
		Availability:          res.Availability,
		ExpectedReward:        res.ExpectedReward,
		YearlyDowntimeMinutes: res.YearlyDowntimeMinutes,
		MTBFHours:             res.MTBFHours,
		LambdaEq:              res.LambdaEq,
		MuEq:                  res.MuEq,
		Pi:                    pi,
	}
}

func hierResponse(ev *spec.HierEvaluation) HierSolveResponse {
	out := HierSolveResponse{
		Name:                  ev.Name,
		Availability:          ev.Result.Availability,
		YearlyDowntimeMinutes: ev.Result.YearlyDowntimeMinutes,
		LambdaEq:              ev.Result.LambdaEq,
		MuEq:                  ev.Result.MuEq,
	}
	for _, c := range ev.Children {
		out.Children = append(out.Children, hierResponse(c))
	}
	return out
}

// obsEncodeFailures counts responses whose JSON encoding failed after
// the header was on the wire. The status can no longer be corrected at
// that point (the client sees a truncated 200), so the failure must at
// least be observable: job results can be large, and a write error on a
// dying connection is the common cause.
var obsEncodeFailures = obs.C("httpapi_response_encode_failures_total",
	"responses whose JSON encoding failed after the header was written")

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obsEncodeFailures.Inc()
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
