package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/availd"
	"repro/internal/hierarchy"
	"repro/internal/modelspec"
	"repro/internal/stats"
	"repro/internal/tracemine"
	"repro/internal/travelagency"
	"repro/internal/webfarm"
)

// This file holds the output oracles. Each returns nil when the program's
// output is right and an error naming the first discrepancy otherwise; the
// workloads count every error in "failed".

// tolerance bounds the difference between an availd result and the
// uncached in-process reference.
const tolerance = 1e-12

// checkZ is the normal quantile of the statistical oracles: the measured
// availability interval and the tracemine drift band. A run makes a few
// hundred such comparisons and the benchmark is run hundreds of times, so
// the band is set where a false alarm is expected less than once in 10^7
// comparisons (z = 5.5), not at the 95% reporting level.
const checkZ = 5.5

func near(a, b float64) bool {
	return math.Abs(a-b) <= tolerance || a == b
}

// applyOverrides mirrors availd's what-if semantics: each named service
// becomes a plain service with the given availability.
func applyOverrides(spec *modelspec.Spec, overrides map[string]float64) error {
	for name, v := range overrides {
		found := false
		for i := range spec.Services {
			if spec.Services[i].Name == name {
				a := v
				spec.Services[i] = modelspec.ServiceSpec{Name: name, Availability: &a}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("override names unknown service %q", name)
		}
	}
	return nil
}

// evaluateDoc is the uncached reference: modelspec.Parse → Build → Evaluate.
func evaluateDoc(doc []byte, overrides map[string]float64) (*modelspec.Spec, *hierarchy.Report, error) {
	spec, err := modelspec.Parse(doc)
	if err != nil {
		return nil, nil, err
	}
	if err := applyOverrides(spec, overrides); err != nil {
		return nil, nil, err
	}
	m, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	rep, err := m.Evaluate()
	return spec, rep, err
}

// referenceEval computes the evaluate response availd must return for doc
// with overrides, given the baseline report (needed with overrides only).
func referenceEval(doc []byte, overrides map[string]float64, baseline func() (*availd.EvalResponse, error)) (*availd.EvalResponse, error) {
	spec, rep, err := evaluateDoc(doc, overrides)
	if err != nil {
		return nil, err
	}
	want := &availd.EvalResponse{
		Model:              spec.Name,
		Services:           rep.Services,
		Functions:          rep.Functions,
		UserAvailability:   rep.UserAvailability,
		UserUnavailability: rep.UserUnavailability(),
	}
	for _, sc := range rep.Scenarios {
		want.Scenarios = append(want.Scenarios, availd.ScenarioAvailability{
			Name: sc.Name, Probability: sc.Probability, Availability: sc.Availability})
	}
	if len(overrides) > 0 {
		base, err := baseline()
		if err != nil {
			return nil, err
		}
		b := base.UserAvailability
		delta := rep.UserAvailability - b
		want.BaselineUserAvailability = &b
		want.Delta = &delta
	}
	return want, nil
}

// compareEval checks an evaluate response body against the reference.
func compareEval(body []byte, want *availd.EvalResponse) error {
	var got availd.EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("response does not decode: %v", err)
	}
	if got.Model != want.Model {
		return fmt.Errorf("model %q, want %q", got.Model, want.Model)
	}
	if err := compareMaps("service", got.Services, want.Services); err != nil {
		return err
	}
	if err := compareMaps("function", got.Functions, want.Functions); err != nil {
		return err
	}
	if len(got.Scenarios) != len(want.Scenarios) {
		return fmt.Errorf("%d scenarios, want %d", len(got.Scenarios), len(want.Scenarios))
	}
	for i, sc := range got.Scenarios {
		w := want.Scenarios[i]
		if sc.Name != w.Name || !near(sc.Probability, w.Probability) || !near(sc.Availability, w.Availability) {
			return fmt.Errorf("scenario %d = %+v, want %+v", i, sc, w)
		}
	}
	if !near(got.UserAvailability, want.UserAvailability) || !near(got.UserUnavailability, want.UserUnavailability) {
		return fmt.Errorf("user availability %v/%v, want %v/%v", got.UserAvailability,
			got.UserUnavailability, want.UserAvailability, want.UserUnavailability)
	}
	if err := compareOptional("baseline", got.BaselineUserAvailability, want.BaselineUserAvailability); err != nil {
		return err
	}
	return compareOptional("delta", got.Delta, want.Delta)
}

func compareMaps(what string, got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %ss, want %d", len(got), what, len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !near(g, w) {
			return fmt.Errorf("%s %q = %v, want %v", what, k, g, w)
		}
	}
	return nil
}

func compareOptional(what string, got, want *float64) error {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Errorf("%s present=%v, want present=%v", what, got != nil, want != nil)
	case got != nil && !near(*got, *want):
		return fmt.Errorf("%s %v, want %v", what, *got, *want)
	}
	return nil
}

// references memoizes reference evaluations for the oracle (the oracle's
// own cache; availd's is what is under test). It holds at most
// maxReferences entries and starts over when full.
type references struct {
	mu sync.Mutex
	m  map[string]*availd.EvalResponse
}

const maxReferences = 4096

func newReferences() *references {
	return &references{m: make(map[string]*availd.EvalResponse)}
}

func (r *references) get(doc []byte, overrides map[string]float64) (*availd.EvalResponse, error) {
	key := string(doc) + "|" + overridesKey(overrides)
	r.mu.Lock()
	want, ok := r.m[key]
	r.mu.Unlock()
	if ok {
		return want, nil
	}
	want, err := referenceEval(doc, overrides, func() (*availd.EvalResponse, error) { return r.get(doc, nil) })
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if len(r.m) >= maxReferences {
		r.m = make(map[string]*availd.EvalResponse)
	}
	r.m[key] = want
	r.mu.Unlock()
	return want, nil
}

// checkEvaluate judges an evaluate response against the reference for the
// document it names: inline, or the stored scenario's in c.
func checkEvaluate(refs *references, c *corpus, req apiRequest, body []byte) error {
	doc := req.Doc
	if req.Target != "" {
		doc = c.docs[req.Target]
	}
	want, err := refs.get(doc, req.Overrides)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	return compareEval(body, want)
}

// checkSweep judges a completed sweep job's result against per-point
// reference evaluations.
func checkSweep(doc []byte, sw availd.SweepRequest, body []byte) error {
	var got availd.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("sweep result does not decode: %v", err)
	}
	if got.Service != sw.Service || len(got.Points) != sw.Points {
		return fmt.Errorf("sweep of %q with %d points, want %q with %d",
			got.Service, len(got.Points), sw.Service, sw.Points)
	}
	for i, pt := range got.Points {
		v := sw.From + (sw.To-sw.From)*float64(i)/float64(sw.Points-1)
		if !near(pt.ServiceAvailability, v) {
			return fmt.Errorf("sweep point %d at %v, want %v", i, pt.ServiceAvailability, v)
		}
		_, rep, err := evaluateDoc(doc, map[string]float64{sw.Service: v})
		if err != nil {
			return fmt.Errorf("reference: %v", err)
		}
		if !near(pt.UserAvailability, rep.UserAvailability) {
			return fmt.Errorf("sweep point %d user availability %v, want %v", i, pt.UserAvailability, rep.UserAvailability)
		}
	}
	return nil
}

// checkPut judges a scenario update response: the stored version must be
// the one after this PUT.
func checkPut(req apiRequest, body []byte) error {
	var sc availd.Scenario
	if err := json.Unmarshal(body, &sc); err != nil {
		return fmt.Errorf("scenario does not decode: %v", err)
	}
	if sc.Name != req.Target || sc.Version != int64(req.Seq+2) {
		return fmt.Errorf("PUT returned %s v%d, want %s v%d", sc.Name, sc.Version, req.Target, req.Seq+2)
	}
	return nil
}

// checkResponse judges any API response: the status first, then the body.
// An invalid call is judged by its status alone.
func checkResponse(refs *references, c *corpus, req apiRequest, status int, body []byte) error {
	if status != req.Want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", req.Method, req.Path, status, req.Want, body)
	}
	switch req.Kind {
	case kindEvaluate:
		return checkEvaluate(refs, c, req, body)
	case kindPut:
		return checkPut(req, body)
	}
	return nil
}

// checkMeasured requires the measured availability's interval to bracket
// the analytic eq. (10) prediction.
func checkMeasured(class travelagency.UserClass, successes, visits int64, predicted float64) error {
	ci, err := stats.AdjustedWaldZ(successes, visits, checkZ)
	if err != nil {
		return err
	}
	if !ci.Contains(predicted) {
		return fmt.Errorf("class %v: measured %d/%d, interval [%.5f, %.5f] misses eq. (10) %.5f",
			class, successes, visits, ci.Low(), ci.High(), predicted)
	}
	return nil
}

// serviceEdge is the Kind of tracemine's per-call service-availability
// comparisons.
const serviceEdge = "service"

// checkConsistent requires every edge of a tracemine diff to be
// consistent, except per-call service edges judged drift, which it returns
// for checkServiceEdges. Diff counts each call as an independent trial, but
// a testbed visit holds one fault-plane snapshot: a visit that finds Net
// down fails on Net in each function it runs, 1 to 5 times. Over a
// 6000-visit window (about 13500 calls) Diff's band is then too narrow, and
// healthy traffic reads drifted on Net or LAN. Service edges that are extra,
// missing or insufficient fail here.
func checkConsistent(what string, rep *tracemine.Report) ([]tracemine.Edge, error) {
	var flagged []tracemine.Edge
	for _, e := range rep.Drift {
		if e.Kind != serviceEdge || e.Status != tracemine.StatusDrift {
			return nil, fmt.Errorf("%s verdict %s: %s", what, rep.Verdict, e.String())
		}
		flagged = append(flagged, e)
	}
	for _, e := range rep.Edges {
		if e.Kind == serviceEdge && e.Status == tracemine.StatusInsufficient {
			return nil, fmt.Errorf("%s: %s", what, e.String())
		}
	}
	if rep.Verdict != tracemine.VerdictConsistent && len(flagged) == 0 {
		return nil, fmt.Errorf("%s verdict %s with no drifted edge", what, rep.Verdict)
	}
	return flagged, nil
}

// checkServiceEdge judges a per-call service edge Diff flagged under the
// testbed's sampling design. A visit's m calls to a service share one
// fault snapshot, so over visits calling it m_i times the per-call
// availability has variance p(1-p)·Σm_i²/(Σm_i)², not p(1-p)/Σm_i: the
// independent-call variance times Σm_i²/Σm_i (exact when a visit's calls
// fail together, an upper bound otherwise). The edge's observed
// availability must lie within checkZ standard errors of the specified one,
// with Σm_i²/Σm_i measured on visits and the edge's own call count.
func checkServiceEdge(e tracemine.Edge, visits []tracemine.Visit) error {
	var sum, sumSq float64
	for _, v := range visits {
		m := 0
		for _, fn := range v.Functions {
			for _, st := range fn.Steps {
				for _, res := range st.Resources {
					if res.Service == e.Name {
						m++
					}
				}
			}
		}
		sum += float64(m)
		sumSq += float64(m * m)
	}
	if sum == 0 || e.Trials == 0 {
		return fmt.Errorf("service edge %s: no calls to judge it by", e.String())
	}
	p := e.Specified
	se := math.Sqrt(p * (1 - p) * (sumSq / sum) / float64(e.Trials))
	if math.Abs(e.Observed-p) > checkZ*se {
		return fmt.Errorf("%s: off by %.5f, more than %.1f per-visit standard errors (%.5f)",
			e.String(), math.Abs(e.Observed-p), checkZ, se)
	}
	return nil
}

// checkServices judges each service's availability per visit, the unit the
// testbed's observations are independent in: of the visits that called the
// service, the share in which no call failed must bracket the spec's
// availability at z = checkZ.
func checkServices(visits []tracemine.Visit, spec *modelspec.Spec) error {
	called := make(map[string]int64)
	failed := make(map[string]int64)
	for _, v := range visits {
		calls := make(map[string]bool)
		for _, fn := range v.Functions {
			for _, st := range fn.Steps {
				for _, res := range st.Resources {
					calls[res.Service] = calls[res.Service] || !res.OK
				}
			}
		}
		for svc, anyFailed := range calls {
			called[svc]++
			if anyFailed {
				failed[svc]++
			}
		}
	}
	if len(called) == 0 {
		return fmt.Errorf("no service calls in %d visits", len(visits))
	}
	names := make([]string, 0, len(called))
	for name := range called {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svc, ok := spec.Service(name)
		if !ok {
			return fmt.Errorf("service %q is not in the spec", name)
		}
		want, err := svc.EffectiveAvailability()
		if err != nil {
			return err
		}
		ci, err := stats.AdjustedWaldZ(called[name]-failed[name], called[name], checkZ)
		if err != nil {
			return err
		}
		if !ci.Contains(want) {
			return fmt.Errorf("service %s: %d of %d visits without a failed call, interval [%.5f, %.5f] misses %.5f",
				name, called[name]-failed[name], called[name], ci.Low(), ci.High(), want)
		}
	}
	return nil
}

// checkMined requires every exported span to be mined, none malformed.
func checkMined(d *tracemine.Discovery, exported int64) error {
	if d.Read.Spans != exported || d.Read.Malformed != 0 || d.Read.Duplicates != 0 {
		return fmt.Errorf("mined %d spans (%d malformed, %d duplicate), exported %d",
			d.Read.Spans, d.Read.Malformed, d.Read.Duplicates, exported)
	}
	return nil
}

// figureCells lists the Figure 11/12 grid in availd's order.
func figureCells(coverage float64) []webfarm.Farm {
	var farms []webfarm.Farm
	for _, lambda := range []float64{1e-2, 1e-3, 1e-4} {
		for _, alpha := range []float64{50, 100, 150} {
			for nw := 1; nw <= 10; nw++ {
				farm := travelagency.WebFarm(travelagency.DefaultParams())
				farm.Servers = nw
				farm.ArrivalRate = alpha
				farm.FailureRate = lambda
				farm.Coverage = coverage
				farms = append(farms, farm)
			}
		}
	}
	return farms
}

// table8Params lists the Table 8 parameter sets.
func table8Params() []travelagency.Params {
	var ps []travelagency.Params
	for _, n := range []int{1, 2, 3, 4, 5, 10} {
		p := travelagency.DefaultParams()
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		ps = append(ps, p)
	}
	return ps
}

// gridReference holds the serial references for the capacity-plan grids.
type gridReference struct {
	figure map[int][]float64
	tableA []float64
	tableB []float64
}

// newGridReference evaluates every figure cell with webfarm.Farm and every
// Table 8 row with travelagency.Evaluate, one at a time.
func newGridReference() (*gridReference, error) {
	g := &gridReference{figure: make(map[int][]float64)}
	for n, coverage := range map[int]float64{11: 1, 12: 0.98} {
		for _, farm := range figureCells(coverage) {
			u, err := farm.Unavailability()
			if err != nil {
				return nil, err
			}
			g.figure[n] = append(g.figure[n], u)
		}
	}
	for _, p := range table8Params() {
		a, err := travelagency.Evaluate(p, travelagency.ClassA)
		if err != nil {
			return nil, err
		}
		b, err := travelagency.Evaluate(p, travelagency.ClassB)
		if err != nil {
			return nil, err
		}
		g.tableA = append(g.tableA, a.UserAvailability)
		g.tableB = append(g.tableB, b.UserAvailability)
	}
	return g, nil
}

// checkFigure judges a Figure 11/12 body against the serial reference.
func (g *gridReference) checkFigure(n int, body []byte) error {
	var got availd.FigureResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("figure %d does not decode: %v", n, err)
	}
	var cells []float64
	for _, byRate := range got.Unavailability {
		for _, byArrival := range byRate {
			cells = append(cells, byArrival...)
		}
	}
	want := g.figure[n]
	if got.Figure != n || len(cells) != len(want) {
		return fmt.Errorf("figure %d has %d cells, want figure %d with %d", got.Figure, len(cells), n, len(want))
	}
	for i := range cells {
		if !near(cells[i], want[i]) {
			return fmt.Errorf("figure %d cell %d = %v, want %v", n, i, cells[i], want[i])
		}
	}
	return nil
}

// checkTable8 judges a Table 8 body against the serial reference.
func (g *gridReference) checkTable8(body []byte) error {
	var got availd.Table8Response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("table 8 does not decode: %v", err)
	}
	if len(got.Rows) != len(g.tableA) {
		return fmt.Errorf("table 8 has %d rows, want %d", len(got.Rows), len(g.tableA))
	}
	for i, row := range got.Rows {
		if !near(row.ClassA, g.tableA[i]) || !near(row.ClassB, g.tableB[i]) {
			return fmt.Errorf("table 8 row %d = %v/%v, want %v/%v", i, row.ClassA, row.ClassB, g.tableA[i], g.tableB[i])
		}
	}
	return nil
}

// checkSame requires a later set's output to equal the first set's bytes.
func checkSame(what string, first, got []byte) error {
	if !bytes.Equal(first, got) {
		return fmt.Errorf("%s differs from the first set's", what)
	}
	return nil
}
