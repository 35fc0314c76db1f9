package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
)

func doRequest(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	h := NewHandler()
	var reader *strings.Reader
	if body == "" {
		reader = strings.NewReader("")
	} else {
		reader = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, reader)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	t.Cleanup(func() { _ = res.Body.Close() })
	return res, rec.Body.Bytes()
}

const flatModel = `{
  "name": "pair",
  "parameters": {"La": 0.001, "Mu": 2},
  "states": [{"name":"Up","reward":1},{"name":"Down","reward":0}],
  "transitions": [
    {"from":"Up","to":"Down","rate":"La"},
    {"from":"Down","to":"Up","rate":"Mu"}
  ]
}`

func TestHealthz(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodGet, "/healthz", "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Errorf("body = %s", body)
	}
}

func TestSolveFlat(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodPost, "/v1/solve", flatModel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", res.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := 2.0 / 2.001
	if math.Abs(sr.Availability-want) > 1e-12 {
		t.Errorf("availability = %v, want %v", sr.Availability, want)
	}
	if sr.Model != "pair" || sr.States != 2 {
		t.Errorf("model meta wrong: %+v", sr)
	}
	if math.Abs(sr.Pi["Up"]+sr.Pi["Down"]-1) > 1e-12 {
		t.Errorf("pi does not sum to 1: %v", sr.Pi)
	}
	if res.Header.Get("Content-Type") != "application/json" {
		t.Errorf("content type = %q", res.Header.Get("Content-Type"))
	}
}

func TestSolveRejectsBadDocument(t *testing.T) {
	t.Parallel()
	res, _ := doRequest(t, http.MethodPost, "/v1/solve", `{"name":"x"}`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.StatusCode)
	}
	res, _ = doRequest(t, http.MethodPost, "/v1/solve", "not json")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.StatusCode)
	}
}

// TestSolveRejectsDeeplyNestedRate: a rate expression nesting past the
// parser's cap is a malformed document (400), rejected before any
// evaluation, however deep the nesting goes.
func TestSolveRejectsDeeplyNestedRate(t *testing.T) {
	t.Parallel()
	doc := strings.Replace(flatModel, `"rate":"La"`, `"rate":"`+strings.Repeat("-", 100000)+`La"`, 1)
	res, body := doRequest(t, http.MethodPost, "/v1/solve", doc)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %.200s)", res.StatusCode, body)
	}
	if !strings.Contains(string(body), "nests deeper") {
		t.Errorf("body = %.200s, want the nesting error", body)
	}
}

func TestSolveUnsolvableModelIs422(t *testing.T) {
	t.Parallel()
	// Well-formed but reducible: no way back from Down.
	doc := `{
	  "name": "trap",
	  "states": [{"name":"Up","reward":1},{"name":"Down","reward":0}],
	  "transitions": [{"from":"Up","to":"Down","rate":"1"}]
	}`
	res, body := doRequest(t, http.MethodPost, "/v1/solve", doc)
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", res.StatusCode, body)
	}
}

// TestSolveRejectsTrailingData: a request body is one document. A junk
// tail or a second value after it is a 400; trailing whitespace is not.
func TestSolveRejectsTrailingData(t *testing.T) {
	t.Parallel()
	for _, route := range []struct{ path, doc string }{
		{"/v1/solve", flatModel},
		{"/v1/solve-hierarchy", hierModel},
	} {
		for _, tc := range []struct {
			tail string
			want int
		}{
			{"\n\n", http.StatusOK},
			{"garbage{", http.StatusBadRequest},
			{route.doc, http.StatusBadRequest},
		} {
			res, body := doRequest(t, http.MethodPost, route.path, route.doc+tc.tail)
			if res.StatusCode != tc.want {
				t.Errorf("%s with tail %.10q: status = %d, want %d (body %s)",
					route.path, tc.tail, res.StatusCode, tc.want, body)
			}
		}
	}
}

func TestSolveHierarchy(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodPost, "/v1/solve-hierarchy", hierModel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", res.StatusCode, body)
	}
	var hr HierSolveResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(hr.Children) != 1 || hr.Children[0].Name != "leaf" {
		t.Errorf("children = %+v", hr.Children)
	}
	want := 2.0 / 2.01
	if math.Abs(hr.Availability-want) > 1e-12 {
		t.Errorf("availability = %v, want %v", hr.Availability, want)
	}
}

func TestSolveHierarchyRejectsBadDocument(t *testing.T) {
	t.Parallel()
	res, _ := doRequest(t, http.MethodPost, "/v1/solve-hierarchy", `{"name":"x"}`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.StatusCode)
	}
}

func TestJSASEndpoint(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodGet, "/v1/jsas?instances=2&pairs=2&spares=2", "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", res.StatusCode, body)
	}
	var jr JSASResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if math.Abs(jr.YearlyDowntimeMinutes-3.49) > 0.15 {
		t.Errorf("YD = %v, want ~3.49 (Table 2)", jr.YearlyDowntimeMinutes)
	}
}

func TestJSASDefaults(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodGet, "/v1/jsas", "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", res.StatusCode, body)
	}
	var jr JSASResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if jr.Instances != 2 || jr.Pairs != 2 {
		t.Errorf("defaults = %+v, want Config 1", jr)
	}
}

func TestJSASBadParams(t *testing.T) {
	t.Parallel()
	res, _ := doRequest(t, http.MethodGet, "/v1/jsas?instances=zero", "")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric: status = %d, want 400", res.StatusCode)
	}
	res, _ = doRequest(t, http.MethodGet, "/v1/jsas?instances=0", "")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero instances: status = %d, want 400", res.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	t.Parallel()
	res, _ := doRequest(t, http.MethodGet, "/v1/solve", "")
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status = %d, want 405", res.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	t.Parallel()
	// A syntactically plausible document whose one giant token forces the
	// decoder to read past the byte cap (pure garbage would fail JSON
	// syntax first and correctly yield 400, not 413).
	big := `{"name":"` + strings.Repeat("x", maxBodyBytes+1)
	for _, path := range []string{"/v1/solve", "/v1/solve-hierarchy"} {
		res, body := doRequest(t, http.MethodPost, path, big)
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status = %d, want 413", path, res.StatusCode)
		}
		if !strings.Contains(string(body), "exceeds") {
			t.Errorf("%s 413 body does not name the limit: %s", path, body)
		}
	}
}

func TestJSASUncertaintyEndpoint(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodGet, "/v1/jsas/uncertainty?samples=200&seed=2004", "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", res.StatusCode, body)
	}
	var ur UncertaintyResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ur.Samples != 200 {
		t.Errorf("samples = %d", ur.Samples)
	}
	if ur.MeanDowntimeMin < 2 || ur.MeanDowntimeMin > 6 {
		t.Errorf("mean = %v, want near the paper's 3.78", ur.MeanDowntimeMin)
	}
	if ur.CI80Low >= ur.CI80High || ur.CI90Low > ur.CI80Low || ur.CI90High < ur.CI80High {
		t.Errorf("inconsistent CIs: %+v", ur)
	}
	if ur.FractionFiveNines <= 0 || ur.FractionFiveNines > 1 {
		t.Errorf("fraction = %v", ur.FractionFiveNines)
	}
}

func TestJSASUncertaintyBadParams(t *testing.T) {
	t.Parallel()
	for _, q := range []string{
		"?samples=0", "?samples=999999", "?samples=abc", "?instances=0", "?seed=zz", "?pairs=x",
	} {
		res, _ := doRequest(t, http.MethodGet, "/v1/jsas/uncertainty"+q, "")
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, res.StatusCode)
		}
	}
}

// infiniteMTBFModel solves fine but fails so rarely (rate 1e-320 per
// hour) that its MTBF, 1/failure-frequency, overflows to +Inf.
const infiniteMTBFModel = `{"name":"x","states":[{"name":"A","reward":1},{"name":"B","reward":0}],` +
	`"transitions":[{"from":"A","to":"B","rate":"1e-320"},{"from":"B","to":"A","rate":"1"}]}`

// TestSolveNonFiniteMeasureIs422: a measure that comes out non-finite is
// a model error (422) naming the measure, both on POST /v1/solve and as
// a solve job, never a JSON encoding failure.
func TestSolveNonFiniteMeasureIs422(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodPost, "/v1/solve", infiniteMTBFModel)
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", res.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "MTBF is +Inf") {
		t.Fatalf("body = %s (%v), want an error naming the infinite MTBF", body, err)
	}

	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	st := waitJob(t, srv, eng, postJob(t, srv, "solve", infiniteMTBFModel).ID)
	if st.State != jobs.StateFailed || st.Error != e.Error {
		t.Errorf("solve job: state %q, error %q; want failed with %q", st.State, st.Error, e.Error)
	}
}
