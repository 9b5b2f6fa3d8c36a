package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/availd"
	"repro/internal/hierarchy"
	"repro/internal/modelspec"
	"repro/internal/obs"
)

// Traced API run: a fixed prefix of the api-cold stream, sent one request
// at a time to availd's own routes (Server.Register) behind tracedAPI.
// tracedAPI records an availd.handler span around the route table's
// ServeHTTP. When it returns, tracedAPI replays what the handler did inside,
// each call a child span of the handler: the strict decode, the store
// read, modelspec.Parse, Evaluator.Evaluate (now answered from the memo)
// with the canonical keys it computes, the solve of each key the real call
// missed, and the registry lookups of availd's instrument wrapper. A sweep
// runs on availd's job engine under an availd.sweep_job span from its
// submit until it is done, and its points are replayed the same way. The
// server runs with one evaluation worker, so a sweep's points run one after
// another and their replays add up to the job's time.

// tracedColdRequests is the length of the traced prefix.
const tracedColdRequests = 300

// Headers carrying span context from the traced client to tracedAPI.
const (
	hdrParent = "X-Perfbench-Parent"
	hdrReq    = "X-Perfbench-Req"
)

type tracedAPI struct {
	srv *availd.Server
	reg *obs.Registry
	mux http.Handler
	rec *recorder
	// shadowDoc seeds the scratch store a PUT's Store.Update is replayed on.
	shadowDoc []byte
	// assignments sums 2^(distinct services) over the scenarios of every
	// model availd solved.
	assignments atomic.Int64
	// replayCounters accumulates the counters the replays moved, so the
	// reported counts are the program's alone.
	replayCounters counters
}

// statusWriter captures the response code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP serves a request through availd's routes. A traced request
// (one carrying hdrReq) is timed under an availd.handler span and then
// explained by replays.
func (t *tracedAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	if req == 0 {
		t.mux.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	// The body is read off the connection before the handler span opens,
	// so the replays can decode it again; the read counts as transport.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	ev := t.srv.Evaluator()
	_, missesBefore, _, _ := ev.MemoStats()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h := t.rec.begin("availd.handler", parent, req)
	t.mux.ServeHTTP(sw, r)
	h.end()
	_, missesAfter, _, _ := ev.MemoStats()
	t.explain(r.Method, r.URL.Path, body, sw.code, int(missesAfter-missesBefore), h.id, req)
}

// explain replays, under the handler span, the public calls availd's
// handler made for one request. Only an evaluate's replays move the
// program's counters; the counters are read around those alone, since a
// sweep job submitted by the request may be running meanwhile.
func (t *tracedAPI) explain(method, path string, body []byte, code, misses int, parent, req int64) {
	ev := t.srv.Evaluator()
	evaluate := method == "POST" && path == "/api/v1/evaluate"
	var before counters
	if evaluate {
		before = readCounters(ev, nil, nil)
	}
	t.rec.replay(func() {
		switch {
		case evaluate:
			var er availd.EvalRequest
			if !t.decode(body, &er, parent, req) {
				break
			}
			if spec := t.resolve(er.Scenario, er.Spec, parent, req); spec != nil {
				keys := t.evaluate(spec, er.Overrides, parent, req)
				for i := 0; i < misses && i < len(keys); i++ {
					t.solve(keys[i], parent, req)
				}
			}
		case method == "POST" && path == "/api/v1/sweep":
			var sr availd.SweepRequest
			if t.decode(body, &sr, parent, req) {
				t.resolve(sr.Scenario, sr.Spec, parent, req)
			}
		case method == "PUT" && strings.HasPrefix(path, "/api/v1/scenarios/"):
			var sb scenarioBody
			if t.decode(body, &sb, parent, req) {
				t.storeUpdate(strings.TrimPrefix(path, "/api/v1/scenarios/"), sb, parent, req)
			}
		case method == "GET" && strings.HasPrefix(path, "/api/v1/scenarios/"):
			t.rec.call("availd.store_get", parent, req, func() {
				_, _ = t.srv.Store().Get(strings.TrimPrefix(path, "/api/v1/scenarios/"))
			})
		}
		t.rec.call("obs.registry", parent, req, func() { t.lookups(routeName(path), method, code) })
	})
	if evaluate {
		t.replayCounters.add(readCounters(ev, nil, nil).sub(before))
	}
}

// decode decodes a body strictly, as availd does, and reports success.
func (t *tracedAPI) decode(body []byte, v any, parent, req int64) bool {
	var err error
	t.rec.call("availd.decode", parent, req, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	})
	return err == nil
}

// resolve replays availd's lookup of a request's scenario name or inline
// spec and returns the parsed spec, nil where availd answered an error.
func (t *tracedAPI) resolve(scenario string, inline json.RawMessage, parent, req int64) *modelspec.Spec {
	var (
		spec *modelspec.Spec
		err  error
	)
	switch {
	case scenario != "" && inline != nil:
		return nil
	case scenario != "":
		var sc availd.Scenario
		t.rec.call("availd.store_get", parent, req, func() { sc, err = t.srv.Store().Get(scenario) })
		if err != nil {
			return nil
		}
		inline = sc.Spec
	case inline == nil:
		return nil
	}
	t.rec.call("modelspec.parse", parent, req, func() { spec, err = modelspec.Parse(inline) })
	if err != nil {
		return nil
	}
	return spec
}

// evaluate calls Evaluator.Evaluate again under an availd.evaluate span,
// now answered from the memo, then computes the canonical keys it computes
// as its children, so its self time is Evaluate minus keys and solves. It
// returns the keys in the order Evaluate solves them: the modified model's
// first when there are overrides, then the base model's.
func (t *tracedAPI) evaluate(spec *modelspec.Spec, overrides map[string]float64, parent, req int64) []string {
	e := t.rec.begin("availd.evaluate", parent, req)
	_, err := t.srv.Evaluator().Evaluate(spec, overrides)
	e.end()
	if err != nil {
		return nil
	}
	specs := []*modelspec.Spec{spec}
	if len(overrides) > 0 {
		mod := *spec
		mod.Services = append([]modelspec.ServiceSpec(nil), spec.Services...)
		if applyOverrides(&mod, overrides) != nil {
			return nil
		}
		specs = []*modelspec.Spec{&mod, spec}
	}
	keys := make([]string, len(specs))
	for i, s := range specs {
		t.rec.call("modelspec.canonical", e.id, req, func() { keys[i], _ = s.CanonicalKey() })
	}
	return keys
}

// solve replays the solve availd runs for a canonical key on a memo miss:
// parse, build, hierarchy evaluation and render.
func (t *tracedAPI) solve(key string, parent, req int64) {
	var (
		spec *modelspec.Spec
		m    *hierarchy.Model
		rep  *hierarchy.Report
		err  error
	)
	t.rec.call("modelspec.parse", parent, req, func() { spec, err = modelspec.Parse([]byte(key)) })
	if err != nil {
		return
	}
	t.rec.call("modelspec.build", parent, req, func() { m, err = spec.Build() })
	if err != nil {
		return
	}
	t.rec.call("hierarchy.evaluate", parent, req, func() { rep, err = m.Evaluate() })
	if err != nil {
		return
	}
	t.assignments.Add(assignments(spec))
	t.rec.call("availd.render", parent, req, func() { _, _ = renderReport(spec.Name, rep) })
}

// storeUpdate replays a PUT's Store.Update on a scratch store holding the
// scenario at version 1, so the real store keeps its versions.
func (t *tracedAPI) storeUpdate(name string, sb scenarioBody, parent, req int64) {
	shadow := availd.NewStore()
	if _, err := shadow.Create(name, t.shadowDoc); err != nil {
		return
	}
	t.rec.call("availd.store_update", parent, req, func() { _, _ = shadow.Update(name, 1, sb.Spec) })
}

// lookups makes the labelled registry lookups availd's instrument wrapper
// makes per request.
func (t *tracedAPI) lookups(route, method string, code int) {
	_, _ = t.reg.Counter("availd_requests_total", "API requests served",
		obs.Label{Key: "route", Value: route},
		obs.Label{Key: "method", Value: method},
		obs.Label{Key: "code", Value: strconv.Itoa(code)})
	_, _ = t.reg.Histogram("availd_request_seconds", "API request latency in seconds", 1e-5, 2, 24,
		obs.Label{Key: "route", Value: route})
}

// routeName is the route label availd gives a path the stream uses.
func routeName(path string) string {
	switch {
	case path == "/api/v1/evaluate":
		return "evaluate"
	case path == "/api/v1/sweep":
		return "sweep"
	case strings.HasPrefix(path, "/api/v1/sweep/"):
		return "sweep_job"
	case strings.HasPrefix(path, "/api/v1/scenarios/"):
		return "scenario"
	}
	return "scenarios"
}

// explainSweep replays, under the availd.sweep_job span, the point
// evaluations of a completed sweep job, and the solves of the misses it
// had: each point's modified model first, then the base model.
func (t *tracedAPI) explainSweep(sr availd.SweepRequest, misses int, parent, req int64) {
	ev := t.srv.Evaluator()
	before := readCounters(ev, nil, nil)
	t.rec.replay(func() {
		sc, err := t.srv.Store().Get(sr.Scenario)
		if err != nil {
			return
		}
		spec, err := modelspec.Parse(sc.Spec)
		if err != nil {
			return
		}
		var mods []string
		var base string
		for i := 0; i < sr.Points; i++ {
			v := sr.From + (sr.To-sr.From)*float64(i)/float64(sr.Points-1)
			keys := t.evaluate(spec, map[string]float64{sr.Service: v}, parent, req)
			if len(keys) != 2 {
				return
			}
			mods, base = append(mods, keys[0]), keys[1]
		}
		ordered := append(mods, base)
		for i := 0; i < misses && i < len(ordered); i++ {
			t.solve(ordered[i], parent, req)
		}
	})
	t.replayCounters.add(readCounters(ev, nil, nil).sub(before))
}

// renderReport marshals a report the way availd renders an evaluation.
func renderReport(name string, rep *hierarchy.Report) ([]byte, error) {
	resp := availd.EvalResponse{
		Model:              name,
		Services:           rep.Services,
		Functions:          rep.Functions,
		Scenarios:          make([]availd.ScenarioAvailability, 0, len(rep.Scenarios)),
		UserAvailability:   rep.UserAvailability,
		UserUnavailability: rep.UserUnavailability(),
	}
	for _, sc := range rep.Scenarios {
		resp.Scenarios = append(resp.Scenarios, availd.ScenarioAvailability{
			Name: sc.Name, Probability: sc.Probability, Availability: sc.Availability})
	}
	return json.Marshal(resp)
}

// assignments is the size of the state space eq. (10) enumerates for a
// spec: the sum over its scenarios of 2^(distinct services the scenario's
// functions touch).
func assignments(spec *modelspec.Spec) int64 {
	scenarios, err := spec.UserScenarios()
	if err != nil {
		return 0
	}
	var total int64
	for _, sc := range scenarios {
		svcs := make(map[string]bool)
		for _, fn := range sc.Functions {
			f, ok := spec.Function(fn)
			if !ok {
				continue
			}
			for _, st := range f.Steps {
				for _, s := range st.Services {
					svcs[s] = true
				}
			}
		}
		total += int64(1) << len(svcs)
	}
	return total
}

// scenarioBody is availd's scenario update payload.
type scenarioBody struct {
	Version int64           `json:"version,omitempty"`
	Spec    json.RawMessage `json:"spec"`
}

// sequential sends reqs one at a time, in order. With t non-nil every
// request is a bench.request root span carrying its transport spans. A
// sweep is submitted, awaited in-process and fetched once; traced, the
// whole of it is an availd.sweep_job span, opened before the submit since
// the job starts running inside the handler, and t explains the job's
// points under it. It returns the wall time and each outcome with the
// completed sweep result, if any.
func (e *apiEnv) sequential(reqs []apiRequest, t *tracedAPI) (time.Duration, []outcome, [][]byte) {
	var rec *recorder
	if t != nil {
		rec = t.rec
	}
	ev := e.srv.Evaluator()
	outs := make([]outcome, len(reqs))
	sweeps := make([][]byte, len(reqs))
	start := time.Now()
	for i, req := range reqs {
		id := int64(i + 1)
		root := rec.begin("bench.request", 0, id)
		send := func(parent *active, method, path string, body []byte) outcome {
			began := time.Now()
			if rec == nil {
				status, out, err := call(e.client, method, e.lb.base+path, body)
				return outcome{status: status, body: out, err: err, latency: time.Since(began)}
			}
			tr := rec.begin("availd.transport", parent.id, id)
			status, out, err := call(e.client, method, e.lb.base+path, body,
				hdrParent, strconv.FormatInt(tr.id, 10), hdrReq, strconv.FormatInt(id, 10))
			tr.end()
			return outcome{status: status, body: out, err: err, latency: time.Since(began)}
		}
		if req.Kind != kindSweep {
			outs[i] = send(root, req.Method, req.Path, req.Body)
			root.end()
			continue
		}
		_, missesBefore, _, _ := ev.MemoStats()
		job := rec.begin("availd.sweep_job", root.spanID(), id)
		o := send(job, req.Method, req.Path, req.Body)
		if o.err == nil && o.status == req.Want {
			var j availd.Job
			o.err = e.awaitSweep(o.body, &j)
			job.end()
			if o.err == nil && t != nil {
				_, missesAfter, _, _ := ev.MemoStats()
				t.explainSweep(*req.Sweep, int(missesAfter-missesBefore), job.id, id)
			}
			if o.err == nil {
				g := send(root, "GET", "/api/v1/sweep/"+j.ID, nil)
				o.err = g.err
				if g.err == nil {
					o.err = json.Unmarshal(g.body, &j)
				}
				if o.err == nil && j.State != availd.JobDone {
					o.err = fmt.Errorf("sweep job %s: %s %s", j.ID, j.State, j.Error)
				}
				sweeps[i] = j.Result
			}
		} else {
			job.end()
		}
		root.end()
		outs[i] = o
	}
	return time.Since(start), outs, sweeps
}

// awaitSweep waits in-process until the sweep job a submit response names
// has finished; job receives the job's identity.
func (e *apiEnv) awaitSweep(submitted []byte, job *availd.Job) error {
	if err := json.Unmarshal(submitted, job); err != nil {
		return err
	}
	_, err := e.srv.Jobs().Wait(context.Background(), job.ID)
	return err
}

// traceAPICold runs the traced api-cold prefix: the traced pass between two
// untraced sequential passes (each on a fresh server) whose mean is the
// overhead baseline, then the oracles on the traced outputs.
func traceAPICold(cfg config, r *run) error {
	c, err := newCorpus()
	if err != nil {
		return err
	}
	reqs := make([]apiRequest, tracedColdRequests)
	writes := 0
	for i := range reqs {
		reqs[i] = coldRequest(c, cfg.seed, int64(i))
		if reqs[i].Kind == kindPut {
			reqs[i] = withWriter(reqs[i], writerName(0), writes)
			writes++
		}
	}
	untracedPass := func() (time.Duration, error) {
		plain, err := newAPIEnv(c, 1, 1, nil)
		if err != nil {
			return 0, err
		}
		defer plain.close()
		wall, _, _ := plain.sequential(reqs, nil)
		return wall, nil
	}
	untraced1, err := untracedPass()
	if err != nil {
		return err
	}

	rec := newRecorder()
	t := &tracedAPI{rec: rec, shadowDoc: c.docs["ta-a"]}
	env, err := newAPIEnv(c, 1, 1, func(srv *availd.Server, reg *obs.Registry, mux http.Handler) http.Handler {
		t.srv, t.reg, t.mux = srv, reg, mux
		return t
	})
	if err != nil {
		return err
	}
	defer env.close()
	ev := env.srv.Evaluator()
	before := readCounters(ev, ev.Composer(), env.srv.Jobs())
	wall, outs, sweeps := env.sequential(reqs, t)
	delta := readCounters(ev, ev.Composer(), env.srv.Jobs()).sub(before)
	delta = delta.sub(t.replayCounters)
	delta.report(r)
	r.report("hierarchy.assignments", float64(t.assignments.Load()), "count", 1)
	untraced2, err := untracedPass()
	if err != nil {
		return err
	}
	reportOverhead(r, wall-rec.replayed(), untraced1, untraced2)

	refs := newReferences()
	checkAll(r, len(reqs), cfg.procs, func(i int) error {
		o, req := outs[i], reqs[i]
		if o.err != nil {
			return o.err
		}
		if req.Kind == kindSweep {
			return checkSweep(c.docs[req.Target], *req.Sweep, sweeps[i])
		}
		return checkResponse(refs, c, req, o.status, o.body)
	})
	return reportLayers(r, rec, wall, cfg)
}
