package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/jobs"
	"repro/internal/jsas"
)

// TestSyncErrorBodiesPinned pins the exact 4xx bodies of the sync routes:
// parameter parse and range errors (first failing parameter wins, in
// parameter order), document defects, an unknown backend, and both
// body-size limits.
func TestSyncErrorBodiesPinned(t *testing.T) {
	t.Parallel()
	big := `{"name":"` + strings.Repeat("x", maxBodyBytes+1)
	cases := []struct {
		method, path, body string
		wantStatus         int
		wantBody           string
	}{
		{"GET", "/v1/jsas?instances=zero", "", 400, `{"error":"instances: want an integer, got \"zero\""}`},
		{"GET", "/v1/jsas?instances=0", "", 400, `{"error":"instances 0 outside [1, 18]"}`},
		{"GET", "/v1/jsas?instances=19", "", 400, `{"error":"instances 19 outside [1, 18]"}`},
		{"GET", "/v1/jsas?spares=65", "", 400, `{"error":"spares 65 outside [0, 64]"}`},
		{"GET", "/v1/jsas?instances=0&pairs=x", "", 400, `{"error":"instances 0 outside [1, 18]"}`},
		{"GET", "/v1/jsas/uncertainty?samples=abc", "", 400, `{"error":"samples: want an integer, got \"abc\""}`},
		{"GET", "/v1/jsas/uncertainty?samples=0&seed=zz", "", 400, `{"error":"samples 0 outside [1, 20000]"}`},
		{"GET", "/v1/jsas/uncertainty?samples=20001", "", 400, `{"error":"samples 20001 outside [1, 20000]"}`},
		{"GET", "/v1/jsas/uncertainty?instances=19", "", 400, `{"error":"instances 19 outside [1, 18]"}`},
		{"GET", "/v1/jsas/uncertainty?seed=zz", "", 400, `{"error":"seed: want an integer, got \"zz\""}`},
		{"GET", "/v1/jsas/uncertainty?pairs=x", "", 400, `{"error":"pairs: want an integer, got \"x\""}`},
		{"POST", "/v1/solve", `{"name":"x"}`, 400, `{"error":"model \"x\" has no states: spec: invalid model specification"}`},
		{"POST", "/v1/solve", `not json`, 400, `{"error":"spec: decode: invalid character 'o' in literal null (expecting 'u')"}`},
		{"POST", "/v1/solve?backend=mystery", flatModel, 400, `{"error":"backend: unknown backend \"mystery\"; want one of: ctmc, bayes"}`},
		{"POST", "/v1/solve?backend=bayes", flatModel, 400, `{"error":"model \"pair\": bayes backend requires a redundancy block (got a Markov model): spec: invalid model specification"}`},
		{"POST", "/v1/solve", big, 413, `{"error":"model document exceeds 1048576 bytes"}`},
		{"POST", "/v1/solve-hierarchy", big, 413, `{"error":"hierarchy document exceeds 1048576 bytes"}`},
		{"POST", "/v1/solve-hierarchy", `{"name":"h"}`, 400, `{"error":"hierarchy \"h\" has no models: spec: invalid model specification"}`},
	}
	for _, c := range cases {
		res, body := doRequest(t, c.method, c.path, c.body)
		if res.StatusCode != c.wantStatus || string(body) != c.wantBody+"\n" {
			t.Errorf("%s %s: got %d %q, want %d %q", c.method, c.path, res.StatusCode, body, c.wantStatus, c.wantBody+"\n")
		}
	}
}

// TestDefaultJobHashesPinned pins the cache identity of the default ({})
// requests of the parameterised job kinds: any change to how defaults
// are filled in would silently orphan every cached result.
func TestDefaultJobHashesPinned(t *testing.T) {
	srv, _ := newJobServer(t, jobs.Config{Workers: 1})
	for kind, want := range map[string]string{
		JobKindJSAS:        "7e4fca6ec0e5f6a6fb518f3d18dc16430d0901eaac3131696dea90ce486dfda5",
		JobKindUncertainty: "eb8f91893f30364da0b248a46fa490dcb89f937eea14db7884ea5d5fee10a053",
		JobKindCampaign:    "1fd2399202b919e75253099a6f381a9bfaf2590fde9901e0084cf6f868bbe3c2",
	} {
		if st := postJob(t, srv, kind, `{}`); st.Hash != want {
			t.Errorf("%s {} hash = %s, want %s", kind, st.Hash, want)
		}
	}
}

// TestSyncMatchesJobResult: each sync route runs the same task as its job
// kind, so a sync 200 body is the finished job's result plus the newline
// json.Encoder writes, and a request one path rejects the other rejects
// too.
func TestSyncMatchesJobResult(t *testing.T) {
	srv, eng := newJobServer(t, jobs.Config{Workers: 2})
	cases := []struct {
		name, method, path, body string
		kind, request            string
		wantStatus               int
	}{
		{"jsas", "GET", "/v1/jsas?instances=4&pairs=2&spares=1", "",
			JobKindJSAS, `{"instances":4,"pairs":2,"spares":1}`, 200},
		{"uncertainty", "GET", "/v1/jsas/uncertainty?samples=50&seed=7", "",
			JobKindUncertainty, `{"samples":50,"seed":7}`, 200},
		{"flat solve", "POST", "/v1/solve", flatModel, JobKindSolve, flatModel, 200},
		{"redundancy solve", "POST", "/v1/solve", redundancyModel, JobKindSolve, redundancyModel, 200},
		{"bayes", "POST", "/v1/solve?backend=bayes", redundancyModel, JobKindBayes, redundancyModel, 200},
		{"hierarchy", "POST", "/v1/solve-hierarchy", hierModel, JobKindSolveHierarchy, hierModel, 200},
		{"instances out of range", "GET", "/v1/jsas?instances=65", "",
			JobKindJSAS, `{"instances":65}`, 400},
		{"samples out of range", "GET", "/v1/jsas/uncertainty?samples=0", "",
			JobKindUncertainty, `{"samples":0}`, 400},
		{"uncertainty instances past the dense cap", "GET", "/v1/jsas/uncertainty?instances=19", "",
			JobKindUncertainty, `{"instances":19}`, 400},
		{"bayes on a flat document", "POST", "/v1/solve?backend=bayes", flatModel, JobKindBayes, flatModel, 400},
		{"redundancy past the product cap", "POST", "/v1/solve", bigRedundancyModel, JobKindSolve, bigRedundancyModel, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, syncBody := doRequest(t, c.method, c.path, c.body)
			if res.StatusCode != c.wantStatus {
				t.Fatalf("sync %s %s: status = %d, want %d (%s)", c.method, c.path, res.StatusCode, c.wantStatus, syncBody)
			}
			if c.wantStatus != 200 {
				body := fmt.Sprintf(`{"kind":%q,"request":%s}`, c.kind, c.request)
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != c.wantStatus {
					t.Fatalf("job %s %s: status = %d, want %d", c.kind, c.request, resp.StatusCode, c.wantStatus)
				}
				return
			}
			done := waitJob(t, srv, eng, postJob(t, srv, c.kind, c.request).ID)
			if done.State != jobs.StateDone {
				t.Fatalf("job state = %s (%s)", done.State, done.Error)
			}
			if want := append(done.Result, '\n'); !bytes.Equal(syncBody, want) {
				t.Fatalf("sync body differs from job result:\nsync: %s\njob:  %s", syncBody, want)
			}
		})
	}
}

// TestUncertaintyInstanceCapIsDenseThreshold derives the instance cap of the
// CTMC kinds: the largest AS cluster whose chain ctmc.AutoMethod still
// solves densely, so every accepted jsas or uncertainty request stays on
// the dense path and the cap cannot drift from the dense threshold.
func TestUncertaintyInstanceCapIsDenseThreshold(t *testing.T) {
	method := func(n int) ctmc.Method {
		t.Helper()
		st, err := jsas.BuildAppServer(jsas.DefaultParams(), n)
		if err != nil {
			t.Fatal(err)
		}
		return ctmc.AutoMethod(st.Model().NumStates())
	}
	if m := method(maxDenseInstances); m != ctmc.MethodDense {
		t.Errorf("a %d-instance AS chain is solved by %v, want dense: lower maxDenseInstances",
			maxDenseInstances, m)
	}
	if m := method(maxDenseInstances + 1); m == ctmc.MethodDense {
		t.Errorf("a %d-instance AS chain is still dense: raise maxDenseInstances",
			maxDenseInstances+1)
	}
}

// TestDenseInstanceCapSameBody: a request one instance past the dense cap
// gets the same 400 body from the sync route and from POST /v1/jobs.
func TestDenseInstanceCapSameBody(t *testing.T) {
	srv, _ := newJobServer(t, jobs.Config{Workers: 1})
	for _, c := range []struct{ path, kind string }{
		{"/v1/jsas", JobKindJSAS},
		{"/v1/jsas/uncertainty", JobKindUncertainty},
	} {
		n := maxDenseInstances + 1
		res, syncBody := doRequest(t, "GET", fmt.Sprintf("%s?instances=%d", c.path, n), "")
		body := fmt.Sprintf(`{"kind":%q,"request":{"instances":%d}}`, c.kind, n)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		jobBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"error":"instances %d outside [1, %d]"}`+"\n", n, maxDenseInstances)
		if res.StatusCode != 400 || string(syncBody) != want {
			t.Errorf("GET %s: got %d %q, want 400 %q", c.path, res.StatusCode, syncBody, want)
		}
		if resp.StatusCode != 400 || string(jobBody) != want {
			t.Errorf("%s job: got %d %q, want 400 %q", c.kind, resp.StatusCode, jobBody, want)
		}
	}
}
