package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/jsas"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/trace"
)

// The serve-mix workload: an open loop of seeded Poisson arrivals
// against a child avail-server on loopback, sent over at most two
// connections, at two fixed rates. Each operation is timed from the
// moment it was due, so a stall also charges the operations queued
// behind it.

// opKind is one entry of the request mix.
type opKind int

const (
	opJSAS opKind = iota
	opSolve
	opSolveHier
	opSolveBayes
	opUncertainty
	opCampaign
	numOpKinds
)

var opNames = [numOpKinds]string{"jsas", "solve", "solve_hierarchy", "solve_bayes", "uncertainty", "campaign"}

// opMix is the share of each kind in percent.
var opMix = [numOpKinds]int{35, 15, 10, 10, 15, 15}

func (k opKind) isJob() bool { return k == opUncertainty || k == opCampaign }

const (
	serveConns       = 2
	jobPoolSize      = 8
	jobSamples       = 100
	jobInjections    = 2000
	quorumMin        = 10
	quorumMax        = 40 // exclusive
	streamInterval   = "10ms"
	flatDocument     = "models/hadb-pair.json"
	hierDocument     = "models/jsas-config1.json"
	lateGrowthFactor = 2.0
	lateGrowthMinMS  = 10.0
)

// rateStep is one fixed offered load, in operations per second.
type rateStep struct {
	name string
	rate float64
}

// serveRates are the two steps of a serve-mix run.
var serveRates = []rateStep{{"light", 200}, {"heavy", 600}}

// op is one scheduled operation.
type op struct {
	due  time.Duration // from the start of the step
	kind opKind
	// arg is the Table 3 row for jsas and the cluster size n for
	// solve_bayes.
	arg int
	// seed is a job's seed; pooled seeds repeat so their jobs hit the
	// cache or coalesce, fresh ones never repeat.
	seed   int64
	pooled bool
}

// jobPool returns the run's repeated job seeds.
func jobPool(seed int64) []int64 {
	pool := make([]int64, jobPoolSize)
	for i := range pool {
		pool[i] = splitmix(seed, int64(1000+i))
	}
	return pool
}

// schedule draws a step's operations: Poisson arrivals at rate per
// second for dur, each with a kind from opMix. It is a pure function of
// its arguments.
func schedule(stepSeed int64, pool []int64, rate float64, dur time.Duration) []op {
	rng := rand.New(rand.NewSource(stepSeed))
	var ops []op
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops
		}
		o := op{due: due}
		pick := rng.Intn(100)
		for k, share := range opMix {
			if pick < share {
				o.kind = opKind(k)
				break
			}
			pick -= share
		}
		switch o.kind {
		case opJSAS:
			o.arg = rng.Intn(len(table3Rows))
		case opSolveBayes:
			o.arg = quorumMin + rng.Intn(quorumMax-quorumMin)
		case opUncertainty, opCampaign:
			if rng.Intn(2) == 0 {
				o.pooled = true
				o.seed = pool[rng.Intn(len(pool))]
			} else {
				o.seed = splitmix(stepSeed, int64(1<<32+i))
			}
		}
		ops = append(ops, o)
	}
}

// quorumDocument is a k-of-n redundancy document over n repairable
// instances, solved on the bayes backend.
func quorumDocument(n int) []byte {
	k := (2*n + 2) / 3
	return fmt.Appendf(nil, `{"name":"quorum-%d","parameters":{"La":0.005,"Mu":2.0},`+
		`"redundancy":{"root":"svc","nodes":[{"name":"as","lambda":"La","mu":"Mu"},`+
		`{"name":"svc","gate":"kofn","k":%d,"of":["as"],"replicate":%d}]}}`, n, k, n)
}

// serveInputs are the documents and expected answers of the mix.
type serveInputs struct {
	flat, hier []byte
	// jsas holds the in-process jsas.Solve answer per Table 3 row.
	jsas []httpapi.JSASResponse
}

func loadServeInputs() (*serveInputs, error) {
	in := &serveInputs{}
	var err error
	if in.flat, err = os.ReadFile(flatDocument); err != nil {
		return nil, err
	}
	if _, err = spec.Parse(bytes.NewReader(in.flat)); err != nil {
		return nil, fmt.Errorf("%s: %w", flatDocument, err)
	}
	if in.hier, err = os.ReadFile(hierDocument); err != nil {
		return nil, err
	}
	if _, err = spec.ParseHier(bytes.NewReader(in.hier)); err != nil {
		return nil, fmt.Errorf("%s: %w", hierDocument, err)
	}
	p := jsas.DefaultParams()
	for _, row := range table3Rows {
		res, err := jsas.Solve(row.cfg, p)
		if err != nil {
			return nil, err
		}
		in.jsas = append(in.jsas, httpapi.JSASResponse{
			Instances: row.cfg.ASInstances, Pairs: row.cfg.HADBPairs, Spares: row.cfg.HADBSpares,
			Availability: res.Availability, YearlyDowntimeMinutes: res.YearlyDowntimeMinutes,
			DowntimeASMinutes: res.DowntimeASMinutes, DowntimeHADBMinutes: res.DowntimeHADBMinutes,
			MTBFHours: res.MTBFHours,
		})
	}
	return in, nil
}

// server is a child avail-server on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
}

// startServer launches bin with default flags on a free loopback port
// and waits for a healthy /healthz.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-s.done
			return nil, fmt.Errorf("%s exited before listening", bin)
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start listening", bin)
	}
	c := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s never became healthy", bin)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// scrape reads the server's metrics as JSON.
func (s *server) scrape(c *http.Client) (map[string]obs.SeriesSnapshot, error) {
	resp, err := c.Get(s.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var series []obs.SeriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	out := make(map[string]obs.SeriesSnapshot, len(series))
	for _, ss := range series {
		out[ss.Name+"{"+ss.Labels+"}"] = ss
	}
	return out, nil
}

// counterDelta sums the change of every series of a metric.
func counterDelta(before, after map[string]obs.SeriesSnapshot, name string) float64 {
	var d float64
	for k, a := range after {
		if strings.HasPrefix(k, name+"{") {
			d += a.Value - before[k].Value
		}
	}
	return d
}

// routeMeanMS is the mean server-side latency of one route between two
// scrapes, from the histogram's exact sum and count.
func routeMeanMS(before, after map[string]obs.SeriesSnapshot, route string) (float64, bool) {
	k := `httpapi_request_seconds{route="` + route + `"}`
	n := after[k].Count - before[k].Count
	if n <= 0 {
		return 0, false
	}
	return (after[k].Sum - before[k].Sum) / float64(n) * 1000, true
}

// result is what one operation observed.
type result struct {
	kind   opKind
	late   time.Duration // send time minus due time
	route  time.Duration // the first request's round trip
	total  time.Duration // due time to response, or to a job's done frame
	failed bool
	// Job status timestamps and the client's done-frame time.
	cached                   bool
	created, started, ended  time.Time
	doneAt, sentAt, followAt time.Time
}

// client sends the mix over one keep-alive connection per worker.
type client struct {
	base string
	in   *serveInputs
	rec  *trace.Recorder // nil when untraced
	// epoch maps wall time into the recorder's clock domain.
	epoch time.Time

	mu       sync.Mutex
	first    map[string][]byte // first body or result per repeatable request
	problems []string
}

func newClient(base string, in *serveInputs) *client {
	return &client{base: base, in: in, first: map[string][]byte{}}
}

func (c *client) problem(format string, args ...any) {
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// same records body under key the first time and otherwise reports
// whether it is byte-identical to the first.
func (c *client) same(key string, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[key]; ok {
		return bytes.Equal(prev, body)
	}
	c.first[key] = append([]byte(nil), body...)
	return true
}

// request builds an operation's first request.
func (c *client) request(o op) (*http.Request, string, error) {
	var method, path string
	var body []byte
	key := opNames[o.kind]
	switch o.kind {
	case opJSAS:
		row := table3Rows[o.arg].cfg
		method, path = http.MethodGet, fmt.Sprintf("/v1/jsas?instances=%d&pairs=%d&spares=%d",
			row.ASInstances, row.HADBPairs, row.HADBSpares)
	case opSolve:
		method, path, body = http.MethodPost, "/v1/solve", c.in.flat
	case opSolveHier:
		method, path, body = http.MethodPost, "/v1/solve-hierarchy", c.in.hier
	case opSolveBayes:
		method, path, body = http.MethodPost, "/v1/solve?backend=bayes", quorumDocument(o.arg)
		key += "/" + strconv.Itoa(o.arg)
	case opUncertainty:
		method, path = http.MethodPost, "/v1/jobs"
		body = fmt.Appendf(nil, `{"kind":"uncertainty","request":{"samples":%d,"seed":%d}}`, jobSamples, o.seed)
		key += "/" + strconv.FormatInt(o.seed, 10)
	case opCampaign:
		method, path = http.MethodPost, "/v1/jobs"
		body = fmt.Appendf(nil, `{"kind":"campaign","request":{"injections":%d,"seed":%d}}`, jobInjections, o.seed)
		key += "/" + strconv.FormatInt(o.seed, 10)
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err == nil && body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, key, err
}

// do runs one operation to completion on hc; due is when it was due.
func (c *client) do(hc *http.Client, o op, due time.Time) result {
	r := result{kind: o.kind}
	r.sentAt = time.Now()
	r.late = r.sentAt.Sub(due)
	fail := func(format string, args ...any) result {
		c.problem(format, args...)
		r.failed = true
		r.total = time.Since(due)
		return r
	}
	req, key, err := c.request(o)
	if err != nil {
		return fail("%s: %v", opNames[o.kind], err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fail("%s: %v", opNames[o.kind], err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.route = time.Since(r.sentAt)
	if err != nil {
		return fail("%s: read body: %v", opNames[o.kind], err)
	}
	want := http.StatusOK
	if o.kind.isJob() {
		want = http.StatusAccepted
	}
	if resp.StatusCode != want {
		return fail("%s: status %d: %.200s", opNames[o.kind], resp.StatusCode, body)
	}
	if !o.kind.isJob() {
		r.total = time.Since(due)
		switch {
		case o.kind == opJSAS:
			var got httpapi.JSASResponse
			if err := json.Unmarshal(body, &got); err != nil || got != c.in.jsas[o.arg] {
				return fail("jsas %v: server %+v, in-process %+v", table3Rows[o.arg].cfg, got, c.in.jsas[o.arg])
			}
		case !c.same(key, body):
			return fail("%s: response differs from the first identical request", key)
		}
		return r
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("%s: submit response: %v", key, err)
	}
	r.followAt = time.Now()
	id := st.ID
	st, err = c.follow(hc, id)
	r.doneAt = time.Now()
	r.total = r.doneAt.Sub(due)
	if err != nil {
		return fail("%s: follow job %d: %v", key, id, err)
	}
	if st.State != jobs.StateDone {
		return fail("%s: job %d ended %s: %s", key, st.ID, st.State, st.Error)
	}
	if o.pooled && !c.same(key, st.Result) {
		return fail("%s: job %d result differs from the first identical job", key, st.ID)
	}
	r.cached = st.Cached
	r.created, _ = time.Parse(time.RFC3339Nano, st.CreatedAt)
	r.started, _ = time.Parse(time.RFC3339Nano, st.StartedAt)
	r.ended, _ = time.Parse(time.RFC3339Nano, st.EndedAt)
	return r
}

// follow reads a job's event stream until its done frame.
func (c *client) follow(hc *http.Client, id int64) (jobs.Status, error) {
	var st jobs.Status
	resp, err := hc.Get(fmt.Sprintf("%s/v1/jobs/%d/stream?interval=%s", c.base, id, streamInterval))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(line[len("data: "):]), &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended without a done frame")
}

// span records a finished interval in the recorder's clock domain.
func (c *client) span(name string, parent *trace.Active, from, to time.Time, attrs ...trace.Attr) *trace.Active {
	sp := c.rec.StartAt(name, from.Sub(c.epoch), parent, attrs...)
	sp.EndAt(to.Sub(c.epoch))
	return sp
}

// traceOp records one operation's spans: the operation from its due
// time, the client's requests, and the server-side queue wait and run
// rebuilt from the job's status timestamps.
func (c *client) traceOp(r result, due time.Time) {
	end := due.Add(r.total)
	root := c.rec.StartAt("serve.op", due.Sub(c.epoch), nil, trace.String("kind", opNames[r.kind]))
	defer root.EndAt(end.Sub(c.epoch))
	if !r.kind.isJob() {
		c.span("httpapi."+opNames[r.kind], root, r.sentAt, r.sentAt.Add(r.route))
		return
	}
	c.span("httpapi.jobs_submit", root, r.sentAt, r.sentAt.Add(r.route))
	if r.failed || r.followAt.IsZero() {
		return
	}
	follow := c.rec.StartAt("jobs.follow", r.followAt.Sub(c.epoch), root)
	clip := func(t time.Time) time.Time {
		if t.Before(r.followAt) {
			return r.followAt
		}
		if t.After(r.doneAt) {
			return r.doneAt
		}
		return t
	}
	if !r.started.IsZero() {
		c.span("jobs.queue_wait", follow, clip(r.created), clip(r.started))
	}
	if !r.ended.IsZero() && !r.started.IsZero() {
		c.span("jobs.run", follow, clip(r.started), clip(r.ended), trace.String("kind", opNames[r.kind]))
	}
	follow.EndAt(r.doneAt.Sub(c.epoch))
}

// step is one rate step's observations.
type step struct {
	name    string
	ops     []op
	results []result
	before  map[string]obs.SeriesSnapshot
	after   map[string]obs.SeriesSnapshot
}

// runStep sends ops on serveConns connections and waits for all of
// them. When traced, every other operation records spans.
func (c *client) runStep(s *server, name string, ops []op, traced bool) (*step, error) {
	conns := make([]*http.Client, serveConns)
	for i := range conns {
		conns[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
		defer conns[i].CloseIdleConnections()
	}
	st := &step{name: name, ops: ops, results: make([]result, len(ops))}
	var err error
	if st.before, err = s.scrape(conns[0]); err != nil {
		return nil, err
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, hc := range conns {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				time.Sleep(time.Until(due))
				r := c.do(hc, ops[i], due)
				st.results[i] = r
				if traced && i%2 == 0 {
					c.traceOp(r, due)
				}
			}
		}(hc)
	}
	wg.Wait()
	if st.after, err = s.scrape(conns[0]); err != nil {
		return nil, err
	}
	return st, nil
}

// stepStats is a step's summary. fresh holds the jobs with never-seen
// seeds, which always compute: the job times as a whole mix those with
// cache hits, and with about half of each kind their median sits
// between the two modes.
type stepStats struct {
	sync, job, fresh, tracedSync timing
	late                         []float64 // lateness in op order, ms
	attempted, failed            int
}

// stats summarizes a step. In a traced step the even-numbered
// operations carried spans: sync holds the odd ones and tracedSync the
// even ones, so the two give the tracing overhead.
func (st *step) stats(traced bool) stepStats {
	s := stepStats{
		sync:  timing{name: "serve." + st.name + ".sync_ms"},
		job:   timing{name: "serve." + st.name + ".job_ms"},
		fresh: timing{name: "serve." + st.name + ".fresh_job_ms"},
	}
	for i, r := range st.results {
		s.attempted++
		s.late = append(s.late, ms(r.late))
		if r.failed {
			s.failed++
			continue
		}
		switch {
		case r.kind.isJob():
			s.job.add(r.total)
			if !st.ops[i].pooled {
				s.fresh.add(r.total)
			}
		case traced && i%2 == 0:
			s.tracedSync.add(r.total)
		default:
			s.sync.add(r.total)
		}
	}
	return s
}

// lateGrowing reports whether the generator fell further behind as the
// step went on: the last quarter's median lateness is both above
// lateGrowthMinMS and lateGrowthFactor times the first quarter's.
func lateGrowing(late []float64) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	first, last := median(late[:q]), median(late[len(late)-q:])
	return last > lateGrowthMinMS && last > lateGrowthFactor*first
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// serveSession is what one server's life under the mix observed.
type serveSession struct {
	setups   []time.Duration
	steps    []*step
	rss      metric
	problems []string
	// rec holds the traced operations' spans (nil when untraced).
	rec *trace.Recorder
}

// runServeSession starts a server setups times, timing each start up to
// a finished warm-up and keeping the last, runs the rate steps for
// stepDur each, and stops the server.
func runServeSession(e *env, seed int64, setups int, rates []rateStep, stepDur time.Duration, traced bool) (*serveSession, error) {
	ss := &serveSession{}
	var srv *server
	var c *client
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for k := 0; k < setups; k++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		in, err := loadServeInputs()
		if err != nil {
			return nil, err
		}
		if srv, err = startServer(e.server); err != nil {
			return nil, err
		}
		c = newClient(srv.base, in)
		if err := c.warmUp(splitmix(seed, int64(-1-k))); err != nil {
			return nil, err
		}
		ss.setups = append(ss.setups, time.Since(t0))
	}
	if traced {
		c.epoch = time.Now()
		epoch := c.epoch
		c.rec = trace.New(trace.Config{Capacity: trace.Unbounded,
			Clock: func() time.Duration { return time.Since(epoch) }})
		ss.rec = c.rec
	}
	rss, err := startRSSSampler(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	pool := jobPool(seed)
	for i, rs := range rates {
		stepSeed := splitmix(seed, int64(1+i))
		st, err := c.runStep(srv, rs.name, schedule(stepSeed, pool, rs.rate, stepDur), traced)
		if err != nil {
			_, _ = rss.finish()
			return nil, err
		}
		ss.steps = append(ss.steps, st)
	}
	if ss.rss, err = rss.finish(); err != nil {
		return nil, err
	}
	ss.problems = c.problems
	return ss, nil
}

// warmUp sends every operation kind once, outside the measured steps,
// so the server's lazy set-up and the client's connections are done.
func (c *client) warmUp(seed int64) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for k := opKind(0); k < numOpKinds; k++ {
		o := op{kind: k, seed: seed}
		if k == opSolveBayes {
			o.arg = quorumMin
		}
		if r := c.do(hc, o, time.Now()); r.failed {
			return fmt.Errorf("warm-up %s failed: %v", opNames[k], c.problems)
		}
	}
	return nil
}

func runServeMix(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}}
	ss, err := runServeSession(e, e.seed, setupReps, serveRates, e.seconds/time.Duration(len(serveRates)), e.traced)
	if err != nil {
		return nil, err
	}
	for _, p := range ss.problems {
		o.check(false, "%s", p)
	}
	light, heavy := ss.steps[0].stats(e.traced), ss.steps[1].stats(e.traced)
	for _, s := range []stepStats{light, heavy} {
		o.attempted += s.attempted
		o.failed += s.failed
	}
	o.e2e[mSetup] = setupMetric(ss.setups)
	o.e2e[mRSS] = ss.rss
	o.e2e[mOpP50] = rename(light.fresh.p50(), mOpP50)
	o.e2e[mOpTail] = rename(light.fresh.tail(900), mOpTail)
	o.e2e[mOp2P50] = rename(light.sync.p50(), mOp2P50)
	o.addDetail(o.e2e[mSetup], o.e2e[mRSS])
	for _, s := range []stepStats{light, heavy} {
		o.addDetail(s.sync.p50(), s.sync.tail(950), s.sync.tail(990),
			s.job.p50(), s.job.tail(990), s.fresh.p50(), s.fresh.tail(900), s.fresh.tail(950))
	}
	for i, s := range []stepStats{light, heavy} {
		name := "serve." + serveRates[i].name
		valid := 1.0
		if lateGrowing(s.late) {
			valid = 0
			fmt.Fprintf(e.w, "WARNING: %s step invalid: generator lateness kept growing\n", name)
		}
		o.addDetail(
			metric{name + ".gen_late_ms.max", maxOf(s.late), unitMS, len(s.late)},
			metric{name + ".valid", valid, unitN, 0},
			metric{name + ".attempted", float64(s.attempted), unitN, 0},
			metric{name + ".failed", float64(s.failed), unitN, 0},
		)
	}
	if e.traced {
		if err := finishServeTrace(e, o, ss, light); err != nil {
			return nil, err
		}
	}
	return o, nil
}
