package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/trace"
)

// doRequestWith is doRequest with explicit handler options and headers.
func doRequestWith(t *testing.T, opts Options, method, path string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	h := NewHandler(opts)
	req := httptest.NewRequest(method, path, strings.NewReader(""))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	t.Cleanup(func() { _ = res.Body.Close() })
	return res, rec.Body.Bytes()
}

// TestMetricsAcceptHeader covers content negotiation on /metrics: the
// Accept header selects JSON like ?format=json does, text/plain and
// wildcards keep the Prometheus exposition, and an unsatisfiable request
// gets a 406 with a body naming the supported formats.
func TestMetricsAcceptHeader(t *testing.T) {
	cases := []struct {
		name       string
		path       string
		accept     string
		wantStatus int
		wantCT     string
	}{
		{"json via accept", "/metrics", "application/json", http.StatusOK, "application/json"},
		{"json via query", "/metrics?format=json", "", http.StatusOK, "application/json"},
		{"query overrides accept", "/metrics?format=json", "text/plain", http.StatusOK, "application/json"},
		{"text via accept", "/metrics", "text/plain", http.StatusOK, "text/plain"},
		{"text preferred over json", "/metrics", "application/json, text/plain", http.StatusOK, "text/plain"},
		{"wildcard", "/metrics", "*/*", http.StatusOK, "text/plain"},
		{"no accept", "/metrics", "", http.StatusOK, "text/plain"},
		{"json with params", "/metrics", "application/json; q=0.9", http.StatusOK, "application/json"},
		{"unsupported accept", "/metrics", "application/xml", http.StatusNotAcceptable, "application/json"},
		{"unsupported format", "/metrics?format=xml", "", http.StatusNotAcceptable, "application/json"},
		{"unsupported format wins", "/metrics?format=xml", "application/json", http.StatusNotAcceptable, "application/json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			headers := map[string]string{}
			if c.accept != "" {
				headers["Accept"] = c.accept
			}
			res, body := doRequestWith(t, Options{}, http.MethodGet, c.path, headers)
			if res.StatusCode != c.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", res.StatusCode, c.wantStatus, body)
			}
			if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.wantCT) {
				t.Errorf("content type = %q, want prefix %q", ct, c.wantCT)
			}
			if c.wantStatus == http.StatusNotAcceptable {
				var resp errorResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("406 body is not the error envelope: %v (%s)", err, body)
				}
				for _, hint := range []string{"format=json", "application/json"} {
					if !strings.Contains(resp.Error, hint) {
						t.Errorf("406 body %q does not mention %q", resp.Error, hint)
					}
				}
			}
		})
	}
}

// TestPProfGating asserts the profiling endpoints are mounted only behind
// the explicit opt-in: the default handler 404s /debug/pprof/ while
// Options{PProf: true} serves the index.
func TestPProfGating(t *testing.T) {
	if res, _ := doRequestWith(t, Options{}, http.MethodGet, "/debug/pprof/", nil); res.StatusCode != http.StatusNotFound {
		t.Errorf("default handler serves /debug/pprof/: %d, want 404", res.StatusCode)
	}
	res, body := doRequestWith(t, Options{PProf: true}, http.MethodGet, "/debug/pprof/", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("-pprof handler /debug/pprof/ = %d, want 200", res.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%s", body)
	}
	if res, _ := doRequestWith(t, Options{PProf: true}, http.MethodGet, "/debug/pprof/cmdline", nil); res.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", res.StatusCode)
	}
}

// TestTraceEndpoints records a span tree into the process-wide flight
// recorder and reads it back through GET /v1/traces and
// GET /v1/traces/{id} in each export format.
func TestTraceEndpoints(t *testing.T) {
	// Not parallel: shares the default recorder with other tests.
	rec := trace.Default()
	root := rec.Start("httpapi-test-root", nil, trace.String(trace.AttrTrack, "test"))
	rec.Start("httpapi-test-child", root).End()
	root.End()
	id := root.TraceID()

	res, body := doRequest(t, http.MethodGet, "/v1/traces", "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces = %d", res.StatusCode)
	}
	var list struct {
		Traces  []trace.SpanID `json:"traces"`
		Dropped uint64         `json:"dropped"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("trace list: %v (%s)", err, body)
	}
	var listed bool
	for _, got := range list.Traces {
		if got == id {
			listed = true
		}
	}
	if !listed {
		t.Fatalf("trace %d not in list %v", id, list.Traces)
	}

	res, body = doRequest(t, http.MethodGet, fmt.Sprintf("/v1/traces/%d", id), "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("trace get = %d", res.StatusCode)
	}
	var spans []trace.Span
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(spans) != 2 {
		t.Errorf("trace has %d spans, want 2", len(spans))
	}

	res, body = doRequest(t, http.MethodGet, fmt.Sprintf("/v1/traces/%d?format=chrome", id), "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("chrome format = %d", res.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("chrome export invalid: %v (%s)", err, body)
	}

	if res, body = doRequest(t, http.MethodGet, fmt.Sprintf("/v1/traces/%d?format=timeline", id), ""); res.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "httpapi-test-root") {
		t.Errorf("timeline format = %d, body %s", res.StatusCode, body)
	}
	if res, body = doRequest(t, http.MethodGet, fmt.Sprintf("/v1/traces/%d?format=jsonl", id), ""); res.StatusCode != http.StatusOK {
		t.Errorf("jsonl format = %d", res.StatusCode)
	} else if decoded, err := trace.ReadJSONL(strings.NewReader(string(body))); err != nil || len(decoded) != 2 {
		t.Errorf("jsonl round-trip: %d spans, err %v", len(decoded), err)
	}

	if res, _ = doRequest(t, http.MethodGet, fmt.Sprintf("/v1/traces/%d?format=bogus", id), ""); res.StatusCode != http.StatusNotAcceptable {
		t.Errorf("bogus format = %d, want 406", res.StatusCode)
	}
	if res, _ = doRequest(t, http.MethodGet, "/v1/traces/999999999", ""); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", res.StatusCode)
	}
	if res, _ = doRequest(t, http.MethodGet, "/v1/traces/not-a-number", ""); res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace id = %d, want 400", res.StatusCode)
	}
}

// uncertaintyTrace finds the uncertainty.run span of the given sample
// count on the process-wide ring and returns it with its trace's spans.
func uncertaintyTrace(t *testing.T, samples int64) (trace.Span, []trace.Span) {
	t.Helper()
	for _, sp := range trace.Default().Spans() {
		if a, _ := sp.Attr("samples"); sp.Name == "uncertainty.run" && a.Int == samples {
			return sp, trace.Default().TraceSpans(sp.Trace)
		}
	}
	t.Fatalf("no uncertainty.run span of %d samples on trace.Default()", samples)
	return trace.Span{}, nil
}

// TestComputeRunsAreTraced: a sync /v1/jsas/uncertainty request and a
// POST /v1/jobs uncertainty job each become one trace whose root
// (httpapi.request or jobs.run, with its kind) parents uncertainty.run,
// with no span per sample, and GET /v1/traces/{id} serves it.
func TestComputeRunsAreTraced(t *testing.T) {
	t.Parallel()
	check := func(samples int64, rootName string) {
		t.Helper()
		run, spans := uncertaintyTrace(t, samples)
		if len(spans) != 2 {
			t.Errorf("%s trace holds %d spans, want the root and uncertainty.run", rootName, len(spans))
		}
		var root trace.Span
		for _, sp := range spans {
			if sp.ID == run.Parent {
				root = sp
			}
		}
		if root.Name != rootName || root.Parent != 0 || root.ID != run.Trace {
			t.Fatalf("uncertainty.run parent = %+v, want the %s root", root, rootName)
		}
		if len(root.Attrs) != 1 || root.AttrString("kind") != JobKindUncertainty {
			t.Errorf("%s attributes = %v, want kind=%s only", rootName, root.Attrs, JobKindUncertainty)
		}
		res, body := doRequest(t, http.MethodGet, fmt.Sprintf("/v1/traces/%d", root.ID), "")
		if res.StatusCode != http.StatusOK || !strings.Contains(string(body), "uncertainty.run") {
			t.Errorf("/v1/traces/%d = %d %s", root.ID, res.StatusCode, body)
		}
	}

	if res, body := doRequest(t, http.MethodGet, "/v1/jsas/uncertainty?samples=13&seed=24", ""); res.StatusCode != http.StatusOK {
		t.Fatalf("sync uncertainty = %d %s", res.StatusCode, body)
	}
	check(13, "httpapi.request")

	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	st := postJob(t, srv, JobKindUncertainty, `{"samples":17,"seed":24}`)
	if st = waitJob(t, srv, eng, st.ID); st.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	check(17, "jobs.run")
}
