package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Bridge fans one telemetry visit stream out to the observability plane:
// metrics registry series, hierarchical spans and the drift detector. Install
// it with telemetry.Collector.SetOnRecord(bridge.OnVisit); every component is
// optional (nil skips that sink). OnVisit is safe for concurrent use.
type Bridge struct {
	reg    *Registry
	tracer *Tracer
	drift  *DriftDetector

	visitDuration *Histogram
	// Series resolved on a key's first visit and reused afterwards. The
	// failure and resource-down series are not cached: they are looked up
	// (and so registered) only when a failure first occurs, which keeps the
	// exposition identical to registering every series on use.
	visits    handleCache[*Counter]        // ta_visits_total by class
	functions handleCache[functionHandles] // per-function series by name
}

// functionHandles are the series every invocation of one function updates.
type functionHandles struct {
	invocations *Counter
	stepLatency *Histogram
}

// handleCache maps a label value to series handles resolved once. Reads are a
// lock-free lookup in an immutable map; the first use of a key copies the map
// under a mutex. Keys are label values drawn from the model (classes,
// functions), so the map stays small.
type handleCache[V any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]V]
}

// get returns the handles for key, calling resolve on the key's first use.
func (c *handleCache[V]) get(key string, resolve func(string) V) V {
	if v, ok := c.load()[key]; ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.load()
	if v, ok := cur[key]; ok {
		return v
	}
	next := make(map[string]V, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	v := resolve(key)
	next[key] = v
	c.m.Store(&next)
	return v
}

func (c *handleCache[V]) load() map[string]V {
	if p := c.m.Load(); p != nil {
		return *p
	}
	return nil
}

// NewBridge wires a bridge over the given sinks.
func NewBridge(reg *Registry, tracer *Tracer, drift *DriftDetector) *Bridge {
	b := &Bridge{reg: reg, tracer: tracer, drift: drift}
	if reg != nil {
		// 1 ms to ~17 model minutes, matching the collector's step layout.
		b.visitDuration = reg.MustHistogram("ta_visit_duration_seconds",
			"visit virtual wall-clock length, model seconds", 1e-3, 2, 22)
	}
	return b
}

// OnVisit folds one finished visit into every configured sink.
func (b *Bridge) OnVisit(tr telemetry.VisitTrace) {
	if b.reg != nil {
		b.recordMetrics(tr)
	}
	if b.tracer != nil {
		b.tracer.Record(VisitSpans(tr))
	}
	if b.drift != nil {
		b.drift.Observe(tr.OK)
	}
}

func (b *Bridge) visitCounter(class string) *Counter {
	return b.reg.MustCounter("ta_visits_total", "completed user visits",
		Label{Key: "class", Value: class})
}

func (b *Bridge) functionSeries(function string) functionHandles {
	fl := Label{Key: "function", Value: function}
	return functionHandles{
		invocations: b.reg.MustCounter("ta_function_invocations_total",
			"function invocations across all visits", fl),
		stepLatency: b.reg.MustHistogram("ta_step_latency_seconds",
			"executed diagram-step latency, model seconds", 1e-3, 2, 22, fl),
	}
}

func (b *Bridge) recordMetrics(tr telemetry.VisitTrace) {
	b.visits.get(tr.Class, b.visitCounter).Inc()
	if !tr.OK {
		class := Label{Key: "class", Value: tr.Class}
		b.reg.MustCounter("ta_visit_failures_total",
			"failed visits by first cause", class,
			Label{Key: "cause", Value: string(tr.Cause)}).Inc()
		if tr.Cause == telemetry.CauseResourceDown && tr.FailedService != "" {
			b.reg.MustCounter("ta_visit_resource_down_total",
				"structural visit failures by failed service", class,
				Label{Key: "service", Value: tr.FailedService}).Inc()
		}
	}
	b.visitDuration.Observe(tr.Duration)
	for _, fn := range tr.Functions {
		fh := b.functions.get(fn.Function, b.functionSeries)
		fh.invocations.Inc()
		if !fn.OK {
			b.reg.MustCounter("ta_function_failures_total",
				"failed function invocations", Label{Key: "function", Value: fn.Function}).Inc()
		}
		h := fh.stepLatency
		for _, st := range fn.Steps {
			h.Observe(st.Latency)
		}
		if len(fn.Steps) == 0 {
			// Step tracing disabled: one observation per function, mirroring
			// the collector's fallback.
			h.Observe(fn.Duration)
		}
	}
}

// VisitSpans converts one telemetry visit trace into the four-level span
// hierarchy: a visit root span, one function span per invocation, one step
// span per executed diagram step and one resource span per service call
// within each step. When the load generator ran without per-step tracing, the
// tree stops at the function level.
func VisitSpans(tr telemetry.VisitTrace) Trace {
	n := 1 + len(tr.Functions)
	for _, fn := range tr.Functions {
		n += len(fn.Steps)
		for _, st := range fn.Steps {
			n += len(st.Services)
		}
	}
	spans := make([]Span, n)
	id := 0
	// open fills the next slot in place, stamping the trace and the next
	// 1-based ID, and returns the new span's ID.
	open := func(parent int, level Level, name string, start, duration float64, ok bool, cause telemetry.Cause) int {
		sp := &spans[id]
		id++
		sp.Trace, sp.ID, sp.Parent, sp.Level, sp.Name = tr.ID, id, parent, level, name
		sp.Start, sp.Duration, sp.OK, sp.Cause = start, duration, ok, string(cause)
		return id
	}
	root := open(0, LevelVisit, tr.Scenario, tr.Start, tr.Duration, tr.OK, tr.Cause)
	spans[0].Attrs = visitAttrs(tr)
	at := tr.Start
	for _, fn := range tr.Functions {
		fnID := open(root, LevelFunction, fn.Function, at, fn.Duration, fn.OK, fn.Cause)
		at += fn.Duration
		for _, st := range fn.Steps {
			stID := open(fnID, LevelStep, st.Step, st.At, st.Latency, st.OK, st.Cause)
			for _, svc := range st.Services {
				ok := !(svc == st.FailedService && !st.OK)
				cause := telemetry.CauseNone
				if !ok {
					cause = st.Cause
				}
				// Per-call latencies are not retained (the step records the
				// max over its parallel fan-out), so every resource span
				// inherits the step latency.
				open(stID, LevelResource, svc, st.At, st.Latency, ok, cause)
			}
		}
	}
	return Trace{Spans: spans}
}

func visitAttrs(tr telemetry.VisitTrace) map[string]string {
	attrs := map[string]string{}
	if tr.Class != "" {
		attrs["class"] = tr.Class
	}
	// The root span's Name already carries the scenario, but miners should
	// not have to know that convention: stamp it as an attr too, so profile
	// discovery keys on attrs alone.
	if tr.Scenario != "" {
		attrs["scenario"] = tr.Scenario
	}
	if tr.FailedService != "" {
		attrs["failed_service"] = tr.FailedService
	}
	if len(attrs) == 0 {
		return nil
	}
	return attrs
}
