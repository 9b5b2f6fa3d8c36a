package obs

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func bridgeVisit(id uint64, ok bool) telemetry.VisitTrace {
	cause := telemetry.CauseNone
	svc := ""
	if !ok {
		cause = telemetry.CauseResourceDown
		svc = "WS"
	}
	return telemetry.VisitTrace{
		ID: id, Class: "class A", Scenario: "1: St-Ho-Ex",
		Start: 0, Duration: 0.02, OK: ok, Cause: cause, FailedService: svc,
		Functions: []telemetry.FunctionTrace{{
			Function: "Home", OK: ok, Cause: cause, FailedService: svc, Duration: 0.02,
		}},
	}
}

// TestBridgeFeedsAllSinks installs the bridge on a collector and checks that
// a recorded visit lands in the registry, the tracer and the drift detector.
func TestBridgeFeedsAllSinks(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(8)
	drift, err := NewDriftDetector(DriftConfig{Predicted: 0.75, Window: 100, MinSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBridge(reg, tracer, drift)
	col := telemetry.NewCollector(4)
	col.SetOnRecord(b.OnVisit)

	for i := 0; i < 30; i++ {
		col.RecordVisit(bridgeVisit(uint64(i), i%4 != 0)) // 75% availability
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ta_visits_total{class="class A"} 30`,
		`ta_visit_failures_total{cause="resource-down",class="class A"} 8`,
		`ta_visit_resource_down_total{class="class A",service="WS"} 8`,
		`ta_function_invocations_total{function="Home"} 30`,
		`ta_function_failures_total{function="Home"} 8`,
		"ta_visit_duration_seconds_count 30",
		`ta_step_latency_seconds_count{function="Home"} 30`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry missing %q:\n%s", want, out)
		}
	}
	if got := len(tracer.Traces()); got != 8 {
		t.Errorf("tracer kept %d traces, want 8", got)
	}
	if st := drift.Status(); st.Observations != 30 {
		t.Errorf("drift observations = %d, want 30", st.Observations)
	}

	// The collector's own aggregates are unaffected by the tap.
	s, err := col.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Visits != 30 || s.Causes[telemetry.CauseResourceDown] != 8 {
		t.Errorf("collector summary %+v", s)
	}
}

// TestBridgeNilSinks checks that a partially wired bridge skips missing
// components instead of panicking.
func TestBridgeNilSinks(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	b.OnVisit(bridgeVisit(1, true))
}

// TestBridgeConcurrent drives the bridge from parallel recorders under -race.
func TestBridgeConcurrent(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg, NewTracer(16), nil)
	col := telemetry.NewCollector(0)
	col.SetOnRecord(b.OnVisit)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				// Two classes and three functions, so the bridge's handle
				// caches are first filled from several goroutines at once.
				v := bridgeVisit(base*500+i, i%2 == 0)
				if base%2 == 1 {
					v.Class = "class B"
				}
				v.Functions[0].Function = []string{"Home", "Browse", "Search"}[i%3]
				col.RecordVisit(v)
			}
		}(uint64(w))
	}
	wg.Wait()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ta_visits_total{class="class A"} 1000`,
		`ta_visits_total{class="class B"} 1000`,
		`ta_function_invocations_total{function="Browse"} 668`,
		`ta_function_invocations_total{function="Home"} 668`,
		`ta_function_invocations_total{function="Search"} 664`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q:\n%s", want, sb.String())
		}
	}
}

// TestBridgeRegistersFailureSeriesOnFirstUse: the failure and resource-down
// series appear in the exposition only once a failure has occurred, even
// though the bridge caches its per-class and per-function handles.
func TestBridgeRegistersFailureSeriesOnFirstUse(t *testing.T) {
	reg := NewRegistry()
	b := NewBridge(reg, nil, nil)
	failureSeries := []string{"ta_visit_failures_total", "ta_visit_resource_down_total", "ta_function_failures_total"}
	render := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for i := 0; i < 5; i++ {
		b.OnVisit(bridgeVisit(uint64(i), true))
	}
	out := render()
	for _, name := range failureSeries {
		if strings.Contains(out, name) {
			t.Errorf("%s registered before any failure:\n%s", name, out)
		}
	}
	b.OnVisit(bridgeVisit(5, false))
	out = render()
	for _, name := range failureSeries {
		if !strings.Contains(out, name+"{") {
			t.Errorf("%s missing after a failure:\n%s", name, out)
		}
	}
	if want := `ta_visits_total{class="class A"} 6`; !strings.Contains(out, want) {
		t.Errorf("missing %q:\n%s", want, out)
	}
}
