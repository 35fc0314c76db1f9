// Compute kinds: each kind the server computes is one function from its
// validated, default-filled request to a jobs.Task. POST /v1/jobs hashes
// that request (jobs.CanonicalHash) and submits the task; each sync
// route decodes its query or body into the same request and runs the
// same task inline, so a sync 200 body is exactly the job's result plus
// the trailing newline json.Encoder writes.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/backend"
	"repro/internal/ctmc"
	"repro/internal/faultinject"
	"repro/internal/hier"
	"repro/internal/jobs"
	"repro/internal/jsas"
	"repro/internal/progress"
	"repro/internal/spec"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/uncertainty"
)

// Work bounds on the parameterized kinds: each unit expands the state
// space (instances/pairs/spares) or multiplies solves (samples) or
// simulated injections, so an unbounded field is an unbounded CPU grant
// to any client. The caps sit far above the paper's configurations
// (≤ 8 instances, ≤ 4 pairs, a 3,287-injection campaign) while keeping
// worst-case requests small.
const (
	maxCampaignInstances  = 64
	maxPairs              = 64
	maxSpares             = 64
	maxUncertaintySamples = 20000
	maxCampaignInjections = 200000
	maxCampaignReplicas   = 64

	// maxDenseInstances caps the AS instances of the CTMC kinds (jsas,
	// uncertainty) at the largest AS chain ctmc's dense path solves: an
	// 18-instance chain has 1,141 states, a 19-instance one 1,331, past
	// the dense threshold, and its Gauss–Seidel solve runs 200,000 sweeps
	// without converging before a multi-second dense fallback. Campaigns
	// run the DES testbed, not a CTMC, and keep maxCampaignInstances.
	// TestUncertaintyInstanceCapIsDenseThreshold derives it.
	maxDenseInstances = 18
)

// intField is one integer request field with its inclusive bounds.
type intField struct {
	name     string
	v        *int
	min, max int
}

// checkRanges rejects the first field outside its bounds.
func checkRanges(fields ...intField) error {
	for _, f := range fields {
		if *f.v < f.min || *f.v > f.max {
			return fmt.Errorf("%s %d outside [%d, %d]", f.name, *f.v, f.min, f.max)
		}
	}
	return nil
}

// queryInt overwrites *v with the named query parameter when present.
func queryInt[T int | int64](q url.Values, name string, v *T) error {
	s := q.Get(name)
	if s == "" {
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("%s: want an integer, got %q", name, s)
	}
	*v = T(n)
	return nil
}

// decodeQuery reads each field from its query parameter and range-checks
// it; the first bad parameter, in field order, is the error.
func decodeQuery(q url.Values, fields ...intField) error {
	for _, f := range fields {
		if err := queryInt(q, f.name, f.v); err != nil {
			return err
		}
		if err := checkRanges(f); err != nil {
			return err
		}
	}
	return nil
}

// decodeRequest strictly decodes a job payload over the defaults already
// in req, then range-checks fields (which point into req). Decoding over
// defaults is the canonicalization: an omitted field and its spelled-out
// default produce the same request, and so the same hash.
func decodeRequest(kind string, raw json.RawMessage, req any, fields ...intField) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("%s request: %w", kind, err)
	}
	return checkRanges(fields...)
}

// buildJobTask decodes one job payload into its canonical request (what
// the hash covers) and the kind's task. All errors are client errors
// (400): the payload failed to parse, validate, or stay within bounds.
func buildJobTask(kind string, raw json.RawMessage) (any, jobs.Task, error) {
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	switch kind {
	case JobKindSolve, JobKindBayes:
		// Parsing then re-marshaling the typed document is its
		// canonicalization: field order normalizes to declaration order,
		// parameter maps to sorted keys.
		doc, err := spec.Parse(bytes.NewReader(raw))
		if err != nil {
			return nil, jobs.Task{}, err
		}
		b := backend.KindCTMC
		if kind == JobKindBayes {
			if doc.Redundancy == nil {
				return nil, jobs.Task{}, fmt.Errorf("bayes job wants a redundancy document (a flat state/transition model belongs to kind %q)", JobKindSolve)
			}
			b = backend.KindBayes
		}
		task, err := solveTask(doc, b)
		return doc, task, err
	case JobKindSolveHierarchy:
		doc, err := spec.ParseHier(bytes.NewReader(raw))
		if err != nil {
			return nil, jobs.Task{}, err
		}
		return doc, hierTask(doc), nil
	case JobKindJSAS:
		req := defaultJSASRequest()
		if err := decodeRequest(kind, raw, &req, req.fields()...); err != nil {
			return nil, jobs.Task{}, err
		}
		return req, jsasTask(req), nil
	case JobKindUncertainty:
		req := defaultUncertaintyRequest()
		if err := decodeRequest(kind, raw, &req, req.fields()...); err != nil {
			return nil, jobs.Task{}, err
		}
		return req, uncertaintyTask(req), nil
	case JobKindCampaign:
		req := defaultCampaignRequest()
		if err := decodeRequest(kind, raw, &req, req.fields()...); err != nil {
			return nil, jobs.Task{}, err
		}
		task, err := campaignTask(req)
		return req, task, err
	case "":
		return nil, jobs.Task{}, fmt.Errorf("job kind missing; want one of: %s", jobKindsHelp)
	default:
		return nil, jobs.Task{}, fmt.Errorf("unknown job kind %q; want one of: %s", kind, jobKindsHelp)
	}
}

// syncRoute serves one compute kind synchronously: decode builds the
// kind's task from the request — any error is a 400, or a 413 naming
// what when the body overflowed maxBodyBytes — and the task runs inline
// on the request context, so a client that disconnects mid-solve
// cancels the work. Tasks of more than one unit (uncertainty samples)
// register on GET /v1/runs while they run; smaller ones get a nil
// tracker, which every task tolerates. Each run is one trace on
// trace.Default(): an httpapi.request root span with the solver spans
// beneath it.
func syncRoute(what string, decode func(*http.Request) (jobs.Task, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		task, err := decode(r)
		if err != nil {
			if bodyTooLarge(err) {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds %d bytes", what, maxBodyBytes))
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		var run *progress.Run
		var tr *progress.Tracker
		if task.Total > 1 {
			run = serverRuns.Begin(task.Kind, task.Detail, task.Total, task.TrackerOpts...)
			tr = run.Tracker()
		}
		span := trace.Default().Start("httpapi.request", nil, trace.String("kind", task.Kind))
		out, err := task.Run(trace.ContextWith(r.Context(), span), tr)
		span.End()
		if run != nil {
			run.Finish(err)
		}
		if err != nil {
			writeError(w, statusForSolveError(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(append(out, '\n')); err != nil {
			obsEncodeFailures.Inc()
		}
	}
}

// decodeSolve reads POST /v1/solve: a model document plus ?backend=.
func decodeSolve(r *http.Request) (jobs.Task, error) {
	doc, err := spec.Parse(r.Body)
	if err != nil {
		return jobs.Task{}, err
	}
	kind, err := backend.ParseKind(r.URL.Query().Get("backend"))
	if err != nil {
		return jobs.Task{}, err
	}
	return solveTask(doc, kind)
}

// solveTask solves a model document on the selected backend. A Markov
// document on the CTMC backend keeps the richer SolveResponse (π vector,
// MTBF, equivalent rates); redundancy documents, and any document on the
// bayes backend, answer BackendSolveResponse. Only checks that build
// nothing run here — the backend pairing and the product state-space cap
// (hier.MaxProductStates, 2^leaves states on the ctmc backend) — so a
// queued, cached or merged job holds just the document, never a built
// model. The model is built once, in Run; a build failure there is still
// the request's defect (badRequest), not a failed solve.
func solveTask(doc *spec.Document, kind backend.Kind) (jobs.Task, error) {
	task := jobs.Task{Kind: JobKindSolve, Total: 1}
	if kind == backend.KindBayes {
		task.Kind = JobKindBayes
	}
	if doc.Redundancy == nil && kind == backend.KindCTMC {
		task.Detail = fmt.Sprintf("model=%s states=%d", doc.Name, len(doc.States))
		task.Run = func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error) {
			structure, err := doc.Compile(nil)
			if err != nil {
				return nil, badRequest{err}
			}
			res, err := structure.Solve(ctmc.SolveOptions{Ctx: ctx})
			if err != nil {
				return nil, err
			}
			tr.Done()
			return json.Marshal(solveResponse(doc.Name, structure, res))
		}
		return task, nil
	}
	if doc.Redundancy == nil {
		// A Markov document on bayes: Model rejects it before building.
		_, err := doc.Model(kind, nil)
		return jobs.Task{}, err
	}
	leaves := doc.Redundancy.LeafCount()
	if kind == backend.KindCTMC && (leaves >= 32 || 1<<leaves > hier.MaxProductStates) {
		return jobs.Task{}, fmt.Errorf("model %q: product state space exceeds %d states (use the bayes backend for large replication): %w",
			doc.Name, hier.MaxProductStates, hier.ErrBadComponent)
	}
	task.Detail = fmt.Sprintf("model=%s nodes=%d leaves=%d", doc.Name, len(doc.Redundancy.Nodes), leaves)
	task.Run = func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error) {
		m, err := doc.Model(kind, nil)
		if err != nil {
			return nil, badRequest{err}
		}
		res, err := m.Solve(ctx)
		if err != nil {
			return nil, err
		}
		tr.Done()
		return json.Marshal(BackendSolveResponse{
			Model:                 res.Name,
			Backend:               string(res.Backend),
			Size:                  res.Size,
			Availability:          res.Availability,
			YearlyDowntimeMinutes: res.YearlyDowntimeMinutes,
		})
	}
	return task, nil
}

// badRequest marks a Run error as the request's defect — a model that
// fails to build — so statusForSolveError answers 400 for it, as the sync
// route does for defects found before Run.
type badRequest struct{ error }

// decodeSolveHierarchy reads POST /v1/solve-hierarchy.
func decodeSolveHierarchy(r *http.Request) (jobs.Task, error) {
	doc, err := spec.ParseHier(r.Body)
	if err != nil {
		return jobs.Task{}, err
	}
	return hierTask(doc), nil
}

// hierTask evaluates a hierarchical document. spec.ParseHier has already
// validated everything Compile checks, so the tree is assembled once, in
// Run.
func hierTask(doc *spec.HierDocument) jobs.Task {
	return jobs.Task{
		Kind:   JobKindSolveHierarchy,
		Detail: fmt.Sprintf("hierarchy=%s models=%d", doc.Name, len(doc.Models)),
		Total:  1,
		Run: func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error) {
			ev, err := doc.Solve(ctx, nil)
			if err != nil {
				return nil, err
			}
			tr.Done()
			return json.Marshal(hierResponse(ev))
		},
	}
}

// jsasRequest is the "jsas" request and its canonical form.
type jsasRequest struct {
	Instances int `json:"instances"`
	Pairs     int `json:"pairs"`
	Spares    int `json:"spares"`
}

func defaultJSASRequest() jsasRequest { return jsasRequest{Instances: 2, Pairs: 2, Spares: 2} }

// fields lists the request's work-sizing fields with their bounds, in
// validation order.
func (r *jsasRequest) fields() []intField {
	return []intField{
		{"instances", &r.Instances, 1, maxDenseInstances},
		{"pairs", &r.Pairs, 0, maxPairs},
		{"spares", &r.Spares, 0, maxSpares},
	}
}

// decodeJSAS reads GET /v1/jsas?instances=&pairs=&spares=.
func decodeJSAS(r *http.Request) (jobs.Task, error) {
	req := defaultJSASRequest()
	if err := decodeQuery(r.URL.Query(), req.fields()...); err != nil {
		return jobs.Task{}, err
	}
	return jsasTask(req), nil
}

// jsasTask solves one JSAS configuration with the paper's parameters.
func jsasTask(req jsasRequest) jobs.Task {
	cfg := jsas.Config{ASInstances: req.Instances, HADBPairs: req.Pairs, HADBSpares: req.Spares}
	return jobs.Task{
		Kind:   JobKindJSAS,
		Detail: fmt.Sprintf("instances=%d pairs=%d spares=%d", req.Instances, req.Pairs, req.Spares),
		Total:  1,
		Run: func(_ context.Context, tr *progress.Tracker) (json.RawMessage, error) {
			res, err := jsas.Solve(cfg, jsas.DefaultParams())
			if err != nil {
				return nil, err
			}
			tr.Done()
			return json.Marshal(JSASResponse{
				Instances:             req.Instances,
				Pairs:                 req.Pairs,
				Spares:                req.Spares,
				Availability:          res.Availability,
				YearlyDowntimeMinutes: res.YearlyDowntimeMinutes,
				DowntimeASMinutes:     res.DowntimeASMinutes,
				DowntimeHADBMinutes:   res.DowntimeHADBMinutes,
				MTBFHours:             res.MTBFHours,
			})
		},
	}
}

// uncertaintyRequest is the "uncertainty" request and its canonical form.
// Spares are not a field: the analysis pins them to 2.
type uncertaintyRequest struct {
	Instances int   `json:"instances"`
	Pairs     int   `json:"pairs"`
	Samples   int   `json:"samples"`
	Seed      int64 `json:"seed"`
}

func defaultUncertaintyRequest() uncertaintyRequest {
	return uncertaintyRequest{Instances: 2, Pairs: 2, Samples: 1000, Seed: 2004}
}

func (r *uncertaintyRequest) fields() []intField {
	return []intField{
		{"instances", &r.Instances, 1, maxDenseInstances},
		{"pairs", &r.Pairs, 0, maxPairs},
		{"samples", &r.Samples, 1, maxUncertaintySamples},
	}
}

// decodeUncertainty reads GET /v1/jsas/uncertainty?instances=&pairs=&samples=&seed=.
func decodeUncertainty(r *http.Request) (jobs.Task, error) {
	req := defaultUncertaintyRequest()
	q := r.URL.Query()
	if err := decodeQuery(q, req.fields()...); err != nil {
		return jobs.Task{}, err
	}
	if err := queryInt(q, "seed", &req.Seed); err != nil {
		return jobs.Task{}, err
	}
	return uncertaintyTask(req), nil
}

// uncertaintyTask runs the paper's Monte-Carlo uncertainty analysis
// (Figures 7–8) over one JSAS configuration.
func uncertaintyTask(req uncertaintyRequest) jobs.Task {
	cfg := jsas.Config{ASInstances: req.Instances, HADBPairs: req.Pairs, HADBSpares: 2}
	return jobs.Task{
		Kind: JobKindUncertainty,
		Detail: fmt.Sprintf("instances=%d pairs=%d samples=%d seed=%d",
			req.Instances, req.Pairs, req.Samples, req.Seed),
		Total:       int64(req.Samples),
		TrackerOpts: []progress.Option{progress.WithUnit("samples"), progress.WithStat("downtimeMin")},
		Run: func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error) {
			res, err := uncertainty.RunCtx(ctx,
				jsas.PaperUncertaintyRanges(),
				jsas.UncertaintySolver(cfg, jsas.DefaultParams()),
				uncertainty.Options{Samples: req.Samples, Seed: req.Seed, Progress: tr},
			)
			if err != nil {
				return nil, err
			}
			ci80, ci90 := res.CIs[0.80], res.CIs[0.90]
			return json.Marshal(UncertaintyResponse{
				Instances:         req.Instances,
				Pairs:             req.Pairs,
				Samples:           res.Summary.N,
				MeanDowntimeMin:   res.Summary.Mean,
				CI80Low:           ci80.Low,
				CI80High:          ci80.High,
				CI90Low:           ci90.Low,
				CI90High:          ci90.High,
				FractionFiveNines: res.FractionBelow(5.25),
			})
		},
	}
}

// campaignRequest is the "campaign" request — a replicated
// fault-injection campaign on the simulated testbed — and its canonical
// form. Replicas are part of the identity (sharding changes the pooled
// statistics deterministically); parallelism is not a request knob at
// all — the merged report is independent of it.
type campaignRequest struct {
	Instances  int     `json:"instances"`
	Pairs      int     `json:"pairs"`
	Spares     int     `json:"spares"`
	Injections int     `json:"injections"`
	Seed       int64   `json:"seed"`
	Replicas   int     `json:"replicas"`
	ASFraction float64 `json:"asFraction"`
	MultiNode  float64 `json:"multiNodeFraction"`
	// Correlated-fault extensions: domain declarations plus the fraction
	// of injections that are common-cause bursts / network partitions.
	// They are omitted from the canonical form when unset, so
	// independent-campaign hashes — and therefore their cache entries —
	// are unchanged from earlier versions.
	CommonCause float64           `json:"commonCauseFraction,omitempty"`
	Partition   float64           `json:"partitionFraction,omitempty"`
	Domains     []spec.DomainSpec `json:"domains,omitempty"`
}

func defaultCampaignRequest() campaignRequest {
	return campaignRequest{
		Instances: 2, Pairs: 2, Spares: 2, Injections: 3287, Seed: 1, Replicas: 1,
		ASFraction: faultinject.DefaultASFraction,
		MultiNode:  faultinject.DefaultMultiNodeFraction,
	}
}

func (r *campaignRequest) fields() []intField {
	return []intField{
		{"instances", &r.Instances, 1, maxCampaignInstances},
		{"pairs", &r.Pairs, 0, maxPairs},
		{"spares", &r.Spares, 0, maxSpares},
		{"injections", &r.Injections, 1, maxCampaignInjections},
		{"replicas", &r.Replicas, 1, maxCampaignReplicas},
	}
}

// campaignTask validates the fractions and fault domains — a bad
// declaration is a 400, not a failed job — and runs the replicated
// campaign.
func campaignTask(req campaignRequest) (jobs.Task, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"asFraction", req.ASFraction}, {"multiNodeFraction", req.MultiNode},
		{"commonCauseFraction", req.CommonCause}, {"partitionFraction", req.Partition},
	} {
		if f.v < 0 || f.v > 1 {
			return jobs.Task{}, fmt.Errorf("%s %g outside [0, 1]", f.name, f.v)
		}
	}
	if req.CommonCause+req.Partition > 1 {
		return jobs.Task{}, fmt.Errorf("commonCauseFraction + partitionFraction = %g exceeds 1", req.CommonCause+req.Partition)
	}
	domains, err := spec.BuildDomains(req.Domains)
	if err != nil {
		return jobs.Task{}, err
	}
	if err := testbed.ValidateDomains(domains, req.Instances, req.Pairs); err != nil {
		return jobs.Task{}, err
	}
	if req.CommonCause > 0 && len(domains) == 0 {
		return jobs.Task{}, fmt.Errorf("commonCauseFraction %g requires domains", req.CommonCause)
	}
	cfg := jsas.Config{ASInstances: req.Instances, HADBPairs: req.Pairs, HADBSpares: req.Spares}
	correlated := req.CommonCause > 0 || req.Partition > 0
	return jobs.Task{
		Kind: JobKindCampaign,
		Detail: fmt.Sprintf("instances=%d pairs=%d injections=%d seed=%d replicas=%d",
			req.Instances, req.Pairs, req.Injections, req.Seed, req.Replicas),
		Total:       int64(req.Injections),
		TrackerOpts: []progress.Option{progress.WithUnit("inj"), progress.WithStat("recovered")},
		Run: func(ctx context.Context, tr *progress.Tracker) (json.RawMessage, error) {
			fopts := faultinject.Options{
				Config:            cfg,
				Params:            jsas.DefaultParams(),
				Seed:              req.Seed,
				Injections:        req.Injections,
				ASFraction:        faultinject.Fraction(req.ASFraction),
				MultiNodeFraction: faultinject.Fraction(req.MultiNode),
				Progress:          tr,
				Domains:           domains,
			}
			// nil pointers when unset keep the campaign's RNG stream — and
			// so the response — byte-identical to earlier versions.
			if req.CommonCause > 0 {
				fopts.CommonCauseFraction = &req.CommonCause
			}
			if req.Partition > 0 {
				fopts.PartitionFraction = &req.Partition
			}
			rep, err := faultinject.RunReplicatedCtx(ctx, faultinject.ReplicatedOptions{
				Options:  fopts,
				Replicas: req.Replicas,
			})
			if err != nil {
				return nil, err
			}
			out := CampaignResponse{
				Instances:    req.Instances,
				Pairs:        req.Pairs,
				Spares:       req.Spares,
				Injections:   len(rep.Injections),
				Replicas:     rep.Replicas,
				Seed:         req.Seed,
				Successes:    rep.Successes,
				SuccessRate:  rep.SuccessRate(),
				Availability: rep.Stats.Availability(),
				DowntimeMin:  rep.Stats.DownTime.Minutes(),
				Outages:      len(rep.Stats.Outages),
			}
			for _, b := range rep.CoverageBounds {
				out.CoverageBounds = append(out.CoverageBounds, CoverageBoundResponse{
					Confidence:         b.Confidence,
					CoverageLowerBound: b.Coverage,
					FIRUpperBound:      b.FIR,
				})
			}
			if correlated {
				out.CommonCauseFraction = req.CommonCause
				out.PartitionFraction = req.Partition
				out.MeasuredBeta = rep.MeasuredCommonCauseFraction()
				out.Partitions = rep.Stats.Partitions
				out.ByClass = make(map[string]ClassStatsResponse, len(rep.ByClass))
				for cl, cs := range rep.ByClass {
					out.ByClass[cl.String()] = ClassStatsResponse{
						Injections:        cs.Injections,
						Successes:         cs.Successes,
						ComponentFailures: cs.ComponentFailures,
						DowntimeMinutes:   cs.Downtime.Minutes(),
					}
				}
			}
			return json.Marshal(out)
		},
	}, nil
}
