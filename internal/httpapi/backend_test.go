package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/jobs"
	"repro/internal/spec"
)

// redundancyModel is a 2-of-3 AS cluster small enough for both backends:
// one repairable leaf replicated three times under a quorum gate.
const redundancyModel = `{
  "name": "as-cluster",
  "parameters": {"La": 0.005, "Mu": 2.0},
  "redundancy": {
    "root": "svc",
    "nodes": [
      {"name": "as", "lambda": "La", "mu": "Mu"},
      {"name": "svc", "gate": "kofn", "k": 2, "of": ["as"], "replicate": 3}
    ]
  }
}`

// bigRedundancyModel is the same structure at 100 replicas: 2^100 product
// states, far past hier.MaxProductStates — only the bayes backend solves it.
const bigRedundancyModel = `{
  "name": "as-cluster-100",
  "parameters": {"La": 0.005, "Mu": 2.0},
  "redundancy": {
    "root": "svc",
    "nodes": [
      {"name": "as", "lambda": "La", "mu": "Mu"},
      {"name": "svc", "gate": "kofn", "k": 90, "of": ["as"], "replicate": 100}
    ]
  }
}`

// decodeBackendSolve unmarshals a BackendSolveResponse body.
func decodeBackendSolve(t *testing.T, body []byte) BackendSolveResponse {
	t.Helper()
	var br BackendSolveResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	return br
}

// TestSolveRedundancyBothBackends posts a redundancy document to
// POST /v1/solve on each backend: both must answer 200 with the same
// availability, matching the 2-of-3 binomial closed form.
func TestSolveRedundancyBothBackends(t *testing.T) {
	t.Parallel()
	a := 2.0 / 2.005
	want := 3*a*a*(1-a) + a*a*a

	res, body := doRequest(t, http.MethodPost, "/v1/solve", redundancyModel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ctmc status = %d, body %s", res.StatusCode, body)
	}
	ctmcRes := decodeBackendSolve(t, body)
	if ctmcRes.Backend != "ctmc" || ctmcRes.Model != "as-cluster" {
		t.Errorf("ctmc meta wrong: %+v", ctmcRes)
	}
	if math.Abs(ctmcRes.Availability-want) > 1e-9 {
		t.Errorf("ctmc availability = %.12f, want %.12f", ctmcRes.Availability, want)
	}

	res, body = doRequest(t, http.MethodPost, "/v1/solve?backend=bayes", redundancyModel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bayes status = %d, body %s", res.StatusCode, body)
	}
	bayesRes := decodeBackendSolve(t, body)
	if bayesRes.Backend != "bayes" {
		t.Errorf("bayes meta wrong: %+v", bayesRes)
	}
	if math.Abs(bayesRes.Availability-ctmcRes.Availability) > 1e-9 {
		t.Errorf("backends disagree: ctmc %.12f vs bayes %.12f",
			ctmcRes.Availability, bayesRes.Availability)
	}
}

// TestSolveRedundancyProductCapIs400 pins the satellite behavior: a
// replication count whose cross-product passes hier.MaxProductStates is a
// request defect on the ctmc backend — 400 with a body pointing at the
// bayes backend — while the identical document solves on ?backend=bayes.
func TestSolveRedundancyProductCapIs400(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodPost, "/v1/solve", bigRedundancyModel)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("ctmc status = %d, want 400 (body %s)", res.StatusCode, body)
	}
	if !strings.Contains(string(body), "bayes backend") {
		t.Errorf("400 body does not point at the bayes backend: %s", body)
	}

	res, body = doRequest(t, http.MethodPost, "/v1/solve?backend=bayes", bigRedundancyModel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bayes status = %d, body %s", res.StatusCode, body)
	}
	br := decodeBackendSolve(t, body)
	if br.Size < 100 {
		t.Errorf("Size = %d, want ≥ 100 BN variables", br.Size)
	}
	if !(br.Availability > 0.999 && br.Availability <= 1) {
		t.Errorf("availability = %v, want near 1", br.Availability)
	}
}

// TestSolveBackendParamValidation: an unknown ?backend= is a 400 naming
// the supported kinds, and a Markov document cannot ride the bayes
// backend (it has no redundancy structure to compose).
func TestSolveBackendParamValidation(t *testing.T) {
	t.Parallel()
	res, body := doRequest(t, http.MethodPost, "/v1/solve?backend=mystery", flatModel)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", res.StatusCode, body)
	}
	if !strings.Contains(string(body), "ctmc") {
		t.Errorf("400 body does not list the backends: %s", body)
	}
	res, body = doRequest(t, http.MethodPost, "/v1/solve?backend=bayes", flatModel)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("markov-on-bayes status = %d, want 400 (body %s)", res.StatusCode, body)
	}
}

// TestBayesJobKind runs the async path end to end: submit, wait, check
// the result matches the synchronous endpoint, and check a repeat
// submission is a byte-identical cache hit.
func TestBayesJobKind(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 2})
	first := postJob(t, srv, JobKindBayes, bigRedundancyModel)
	if first.Cached {
		t.Fatalf("first submission already cached")
	}
	done := waitJob(t, srv, eng, first.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job state = %s (%s)", done.State, done.Error)
	}
	br := decodeBackendSolve(t, done.Result)
	if br.Backend != "bayes" || br.Model != "as-cluster-100" || br.Size < 100 {
		t.Errorf("result meta wrong: %+v", br)
	}

	second := postJob(t, srv, JobKindBayes, bigRedundancyModel)
	if !second.Cached || second.State != jobs.StateDone {
		t.Fatalf("repeat submission not cached: %+v", second)
	}
	if second.Hash != first.Hash {
		t.Fatalf("identical requests hashed differently: %s vs %s", second.Hash, first.Hash)
	}
}

// nearCapRedundancyModel is the same structure at 12 replicas: a
// 4,096-state product on the ctmc backend, inside hier.MaxProductStates
// yet, once built, orders of magnitude larger than its document.
const nearCapRedundancyModel = `{
  "name": "as-cluster-12",
  "parameters": {"La": 0.005, "Mu": 2.0},
  "redundancy": {
    "root": "svc",
    "nodes": [
      {"name": "as", "lambda": "La", "mu": "Mu"},
      {"name": "svc", "gate": "kofn", "k": 10, "of": ["as"], "replicate": 12}
    ]
  }
}`

// TestSolveJobRecordsHoldNoModel: a "solve" job holds only its document
// until a worker builds the model, so resubmitting a cached redundancy
// document builds nothing at submit, and the heap retained by the job
// records does not grow with their number.
func TestSolveJobRecordsHoldNoModel(t *testing.T) {
	var ms runtime.MemStats
	heap := func() (live, total int64) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), int64(ms.TotalAlloc)
	}
	doc, err := spec.Parse(strings.NewReader(nearCapRedundancyModel))
	if err != nil {
		t.Fatal(err)
	}
	live0, total0 := heap()
	m, err := doc.Model(backend.KindCTMC, nil)
	if err != nil {
		t.Fatal(err)
	}
	live1, total1 := heap()
	runtime.KeepAlive(m)
	modelLive, modelAlloc := live1-live0, total1-total0

	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	if done := waitJob(t, srv, eng, postJob(t, srv, JobKindSolve, nearCapRedundancyModel).ID); done.State != jobs.StateDone {
		t.Fatalf("job state = %s (%s)", done.State, done.Error)
	}
	const resubmits = 32
	live0, total0 = heap()
	for i := 0; i < resubmits; i++ {
		if st := postJob(t, srv, JobKindSolve, nearCapRedundancyModel); !st.Cached {
			t.Fatalf("resubmission %d not cached: %+v", i, st)
		}
	}
	live1, total1 = heap()
	perSubmit, grown := (total1-total0)/resubmits, live1-live0
	t.Logf("model: %d B live, %d B allocated; cached submit: %d B allocated; %d records retain %d B",
		modelLive, modelAlloc, perSubmit, resubmits, grown)
	if perSubmit > modelAlloc/4 {
		t.Errorf("a cached resubmission allocates %d B, building the model %d B: the submit path builds the model", perSubmit, modelAlloc)
	}
	if grown > modelLive {
		t.Errorf("%d cached job records retain %d B, more than one built model (%d B)", resubmits, grown, modelLive)
	}
}

// TestSolveBuildFailureIsRequestDefect: a document that validates but
// whose model fails to build is still the request's defect. The sync
// route answers 400 with the builder's error; the job, which builds its
// model only when a worker runs it, fails with that same error.
func TestSolveBuildFailureIsRequestDefect(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		name, query, kind, doc, wantErr string
	}{
		{"negative flat rate", "", JobKindSolve,
			`{"name":"neg","states":[{"name":"Up","reward":1},{"name":"Down","reward":0}],` +
				`"transitions":[{"from":"Up","to":"Down","rate":"-1"},{"from":"Down","to":"Up","rate":"2"}]}`,
			`model "neg": transition 0→1 has negative rate -1: ctmc: invalid model`},
		{"negative leaf rate", "", JobKindSolve,
			`{"name":"negleaf","redundancy":{"root":"svc","nodes":[{"name":"as","lambda":"-1","mu":"2"},` +
				`{"name":"svc","gate":"kofn","k":1,"of":["as"],"replicate":2}]}}`,
			`model "negleaf": leaf "as" lambda = -1 must be finite and positive: spec: invalid model specification`},
		{"leaf availability above 1", "?backend=bayes", JobKindBayes,
			`{"name":"badleaf","redundancy":{"root":"svc","nodes":[{"name":"as","availability":"1.5"},` +
				`{"name":"svc","gate":"kofn","k":1,"of":["as"],"replicate":2}]}}`,
			`leaf "as" availability 1.5 outside [0,1]: spec: invalid model specification`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, body := doRequest(t, http.MethodPost, "/v1/solve"+c.query, c.doc)
			want, _ := json.Marshal(errorResponse{Error: c.wantErr})
			if res.StatusCode != http.StatusBadRequest || string(body) != string(want)+"\n" {
				t.Errorf("sync: got %d %s, want 400 %s", res.StatusCode, body, want)
			}
			done := waitJob(t, srv, eng, postJob(t, srv, c.kind, c.doc).ID)
			if done.State != jobs.StateFailed || done.Error != c.wantErr {
				t.Errorf("job: state %s error %q, want failed %q", done.State, done.Error, c.wantErr)
			}
		})
	}
}

// TestBayesJobValidation: non-redundancy documents and invalid structures
// are rejected at submit time.
func TestBayesJobValidation(t *testing.T) {
	srv, _ := newJobServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		name       string
		request    string
		wantInBody string
	}{
		{"flat markov doc", flatModel, "redundancy"},
		{"missing root", `{"name":"x","redundancy":{"root":"nope","nodes":[{"name":"a","availability":"0.9"}]}}`, "nope"},
		{"not json", `"hello"`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"kind":%q,"request":%s}`, JobKindBayes, c.request)
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e errorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (error %q)", resp.StatusCode, e.Error)
			}
			if c.wantInBody != "" && !strings.Contains(e.Error, c.wantInBody) {
				t.Fatalf("400 error %q does not name %q", e.Error, c.wantInBody)
			}
		})
	}
}
