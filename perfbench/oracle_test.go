package main

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/availd"
	"repro/internal/tracemine"
	"repro/internal/travelagency"
)

// counted feeds one oracle verdict to a fresh run and requires it to be
// counted: passed when wantFail is false, failed otherwise.
func counted(t *testing.T, what string, err error, wantFail bool) {
	t.Helper()
	r := newRun()
	r.check(err, what)
	if r.attempted.Load() != 1 {
		t.Fatalf("%s: %d attempted", what, r.attempted.Load())
	}
	if got := r.failed.Load() == 1; got != wantFail {
		t.Errorf("%s: failed=%v, want %v (err %v)", what, got, wantFail, err)
	}
}

func corpusFor(t *testing.T) *corpus {
	t.Helper()
	c, err := newCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvaluateOracleCountsCorruptedBody(t *testing.T) {
	c := corpusFor(t)
	overrides := map[string]float64{c.services[2]: 0.97}
	want, err := newReferences().get(c.docs["ta-a"], overrides)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	req := apiRequest{Kind: kindEvaluate, Method: "POST", Path: "/api/v1/evaluate", Want: 200,
		Target: "ta-a", Overrides: overrides}
	counted(t, "intact", checkResponse(newReferences(), c, req, 200, body), false)

	bad := *want
	bad.UserAvailability += 1e-9
	body, _ = json.Marshal(bad)
	counted(t, "corrupted", checkResponse(newReferences(), c, req, 200, body), true)
	counted(t, "5xx", checkResponse(newReferences(), c, req, 500, body), true)
}

func TestInvalidBodyOracleRequiresExactStatus(t *testing.T) {
	req := corpusFor(t).invalid[0]
	counted(t, "expected 4xx", checkResponse(nil, nil, req, req.Want, nil), false)
	counted(t, "other 4xx", checkResponse(nil, nil, req, 422, nil), true)
	counted(t, "accepted", checkResponse(nil, nil, req, 200, nil), true)
}

func TestPutOracleCountsWrongVersion(t *testing.T) {
	req := apiRequest{Kind: kindPut, Target: "ta-a", Seq: 2, Want: 200}
	ok, _ := json.Marshal(availd.Scenario{Name: "ta-a", Version: 4})
	counted(t, "intact", checkResponse(nil, nil, req, 200, ok), false)
	stale, _ := json.Marshal(availd.Scenario{Name: "ta-a", Version: 3})
	counted(t, "stale", checkResponse(nil, nil, req, 200, stale), true)
}

func TestSweepOracleCountsCorruptedPoint(t *testing.T) {
	c := corpusFor(t)
	sw := availd.SweepRequest{Scenario: "ta-b", Service: c.services[3], From: 0.9, To: 0.95, Points: 4}
	var resp availd.SweepResponse
	resp.Service = sw.Service
	for i := 0; i < sw.Points; i++ {
		v := sw.From + (sw.To-sw.From)*float64(i)/float64(sw.Points-1)
		_, rep, err := evaluateDoc(c.docs["ta-b"], map[string]float64{sw.Service: v})
		if err != nil {
			t.Fatal(err)
		}
		resp.Points = append(resp.Points, availd.SweepPoint{ServiceAvailability: v, UserAvailability: rep.UserAvailability})
	}
	body, _ := json.Marshal(resp)
	counted(t, "intact", checkSweep(c.docs["ta-b"], sw, body), false)
	resp.Points[2].UserAvailability -= 1e-6
	body, _ = json.Marshal(resp)
	counted(t, "corrupted", checkSweep(c.docs["ta-b"], sw, body), true)
}

func TestMeasuredAvailabilityOracle(t *testing.T) {
	counted(t, "bracketed", checkMeasured(travelagency.ClassA, 9790, 10000, 0.979), false)
	counted(t, "missed", checkMeasured(travelagency.ClassA, 9500, 10000, 0.979), true)
}

func TestDriftVerdictOracle(t *testing.T) {
	verdict := func(rep *tracemine.Report) error {
		_, err := checkConsistent("diff", rep)
		return err
	}
	counted(t, "consistent", verdict(&tracemine.Report{Verdict: tracemine.VerdictConsistent}), false)
	counted(t, "drifted transition", verdict(&tracemine.Report{Verdict: tracemine.VerdictDrifted,
		Drift: []tracemine.Edge{{Kind: "transition", From: "Start", To: "Home", Status: tracemine.StatusDrift}}}), true)
	counted(t, "drifted, no edge", verdict(&tracemine.Report{Verdict: tracemine.VerdictDrifted}), true)
	counted(t, "extra service", verdict(&tracemine.Report{Verdict: tracemine.VerdictDrifted,
		Drift: []tracemine.Edge{{Kind: serviceEdge, Name: "Nope", Status: tracemine.StatusExtra}}}), true)
	counted(t, "insufficient service", verdict(&tracemine.Report{Verdict: tracemine.VerdictConsistent,
		Edges: []tracemine.Edge{{Kind: serviceEdge, Name: "Net", Status: tracemine.StatusInsufficient}}}), true)
	flagged, err := checkConsistent("diff", &tracemine.Report{Verdict: tracemine.VerdictDrifted,
		Drift: []tracemine.Edge{{Kind: serviceEdge, Name: "Net", Status: tracemine.StatusDrift}}})
	if err != nil || len(flagged) != 1 {
		t.Errorf("per-call service flag: %d flagged, err %v; want 1, nil", len(flagged), err)
	}
}

func TestServiceEdgeOracle(t *testing.T) {
	// 4500 visits each calling Net three times: 13500 calls, so the
	// per-visit standard error of 0.9966 is sqrt(3) times the per-call one.
	visits := make([]tracemine.Visit, 4500)
	for i := range visits {
		res := tracemine.VisitResource{Service: "Net", OK: true}
		visits[i].Functions = []tracemine.VisitFunction{{Steps: []tracemine.VisitStep{{Resources: []tracemine.VisitResource{res, res, res}}}}}
	}
	edge := func(observed float64) tracemine.Edge {
		return tracemine.Edge{Kind: serviceEdge, Name: "Net", Specified: 0.9966, Observed: observed,
			Trials: 13500, Status: tracemine.StatusDrift}
	}
	// 0.993 is outside Diff's per-call band at z = 5.5 (±0.0028) but inside
	// the per-visit one (±0.0048); 0.98 is outside both.
	counted(t, "clustered failures", checkServiceEdge(edge(0.993), visits), false)
	counted(t, "corrupted", checkServiceEdge(edge(0.98), visits), true)
	counted(t, "uncalled service", checkServiceEdge(edge(0.993), visits[:0]), true)
}

// visitsWith builds n visits calling service once each, the first failed of
// them failing it.
func visitsWith(service string, n, failed int) []tracemine.Visit {
	out := make([]tracemine.Visit, n)
	for i := range out {
		res := tracemine.VisitResource{Service: service, OK: i >= failed}
		out[i].Functions = []tracemine.VisitFunction{{Steps: []tracemine.VisitStep{{Resources: []tracemine.VisitResource{res, res}}}}}
	}
	return out
}

func TestServiceAvailabilityOracle(t *testing.T) {
	spec, err := travelagency.SpecForClass(travelagency.DefaultParams(), travelagency.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	// Net's specified availability is 0.9966: 34 failed visits in 10000 is
	// on target, 200 is not.
	counted(t, "on target", checkServices(visitsWith("Net", 10000, 34), spec), false)
	counted(t, "corrupted", checkServices(visitsWith("Net", 10000, 200), spec), true)
	counted(t, "unknown service", checkServices(visitsWith("Nope", 100, 0), spec), true)
}

func TestMinedSpanCountOracle(t *testing.T) {
	d := &tracemine.Discovery{Read: tracemine.ReadStats{Spans: 120}}
	counted(t, "all mined", checkMined(d, 120), false)
	counted(t, "span lost", checkMined(d, 121), true)
	d.Read.Malformed = 1
	counted(t, "malformed", checkMined(d, 120), true)
}

func TestGridOraclesCountCorruptedCells(t *testing.T) {
	ref, err := newGridReference()
	if err != nil {
		t.Fatal(err)
	}
	ev := availd.NewEvaluator(2, 0)
	fig, err := ev.Figure(12)
	if err != nil {
		t.Fatal(err)
	}
	counted(t, "figure intact", ref.checkFigure(12, fig), false)
	var f availd.FigureResponse
	if err := json.Unmarshal(fig, &f); err != nil {
		t.Fatal(err)
	}
	f.Unavailability[1][2][3] *= 1.001
	bad, _ := json.Marshal(f)
	counted(t, "figure corrupted", ref.checkFigure(12, bad), true)

	tab, err := ev.Table8()
	if err != nil {
		t.Fatal(err)
	}
	counted(t, "table intact", ref.checkTable8(tab), false)
	var tr availd.Table8Response
	if err := json.Unmarshal(tab, &tr); err != nil {
		t.Fatal(err)
	}
	tr.Rows[4].ClassB += 1e-10
	bad, _ = json.Marshal(tr)
	counted(t, "table corrupted", ref.checkTable8(bad), true)
	counted(t, "later set differs", checkSame("table 8", tab, bad), true)
}

func TestDecisionTraceOracle(t *testing.T) {
	plan := genSignals(3)
	a, err := runSet(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSet(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	counted(t, "repeat", checkSame("decisions", []byte(a.decisions), []byte(b.decisions)), false)
	counted(t, "changed", checkSame("decisions", []byte(a.decisions), []byte(b.decisions+"x")), true)
}

func TestCheckCountsErrors(t *testing.T) {
	counted(t, "transport error", errors.New("connection reset"), true)
}
