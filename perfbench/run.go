package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// run collects one invocation's outcome: attempted and failed operations,
// the metrics for the JSON line and the human report. Safe for concurrent
// use by workload goroutines.
type run struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string

	lines   []reportLine
	metrics map[string]metric

	// Resident-memory sampling over the measured phase.
	rssStop, rssDone chan struct{}
	rssSamples       []float64
}

// reportLine is one human-readable metric with its sample count.
type reportLine struct {
	name    string
	value   float64
	unit    string
	samples int64
}

// maxFailureMessages bounds the failure messages kept for the report.
const maxFailureMessages = 10

func newRun() *run { return &run{metrics: make(map[string]metric)} }

// ok counts one attempted operation that passed its checks.
func (r *run) ok() { r.attempted.Add(1) }

// fail counts one attempted operation that failed: an error status, a
// timeout, a wrong result or a failed check.
func (r *run) fail(format string, args ...any) {
	r.attempted.Add(1)
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < maxFailureMessages {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one operation as passed when err is nil, failed otherwise.
func (r *run) check(err error, what string) {
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	r.ok()
}

func (r *run) failureMessages() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.failures...)
}

func (r *run) failShare() float64 {
	a := r.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(r.failed.Load()) / float64(a)
}

// addLine adds a human-readable report line.
func (r *run) addLine(name string, value float64, unit string, samples int64) {
	r.lines = append(r.lines, reportLine{name: name, value: value, unit: unit, samples: samples})
}

// setMetric adds a metric to the JSON line.
func (r *run) setMetric(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// report adds a report line and the JSON metric of the same name.
func (r *run) report(name string, value float64, unit string, samples int64) {
	r.addLine(name, value, unit, samples)
	r.setMetric(name, value, unit)
}

// alias reports value under its JSON metric name and adds a report line
// under the workload-specific name it stands for on this workload.
func (r *run) alias(metricName, lineName string, value float64, unit string, samples int64) {
	r.addLine(fmt.Sprintf("%s (%s)", metricName, lineName), value, unit, samples)
	r.setMetric(metricName, value, unit)
}

// series is a timed sample: each value with the time it was taken.
// Quantiles and rates are taken per time window and the median over the
// windows is reported, so a burst of machine noise in one window does not
// move the result. Safe for concurrent add.
type series struct {
	mu sync.Mutex
	v  []float64
	at []time.Time
}

// Windowing: a run is cut into statWindows equal time windows; a sample
// with fewer than statWindows*minPerWindow values is summarized whole.
const (
	statWindows  = 5
	minPerWindow = 40
)

// addAt records value v (milliseconds for latencies, a count for rates)
// taken at t.
func (s *series) addAt(v float64, t time.Time) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.at = append(s.at, t)
	s.mu.Unlock()
}

// addLatency records a duration in milliseconds, taken now.
func (s *series) addLatency(d time.Duration) { s.addAt(ms(d), time.Now()) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *series) count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.v))
}

// windows splits the values over statWindows equal windows of [from, to].
func (s *series) windows(from, to time.Time) [][]float64 {
	out := make([][]float64, statWindows)
	span := to.Sub(from)
	for i, v := range s.v {
		k := 0
		if span > 0 {
			k = int(float64(s.at[i].Sub(from)) / float64(span) * statWindows)
		}
		k = max(0, min(k, statWindows-1))
		out[k] = append(out[k], v)
	}
	return out
}

func (s *series) bounds() (time.Time, time.Time) {
	from, to := s.at[0], s.at[0]
	for _, t := range s.at {
		if t.Before(from) {
			from = t
		}
		if t.After(to) {
			to = t
		}
	}
	return from, to
}

// quantile returns the nearest-rank q-quantile in milliseconds: the median
// over the windows of each window's quantile when the sample is large
// enough, the whole sample's otherwise. NaN for an empty sample.
func (s *series) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.v) < statWindows*minPerWindow {
		return quantile(append([]float64(nil), s.v...), q)
	}
	from, to := s.bounds()
	var qs []float64
	for _, w := range s.windows(from, to) {
		if len(w) >= minPerWindow/2 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// mean returns the mean in milliseconds: the median over the windows of
// each window's mean when the sample is large enough, the whole sample's
// otherwise. NaN for an empty sample.
func (s *series) mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	avg := func(vs []float64) float64 {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}
	if len(s.v) < statWindows*minPerWindow {
		return avg(s.v)
	}
	from, to := s.bounds()
	var means []float64
	for _, w := range s.windows(from, to) {
		if len(w) >= minPerWindow/2 {
			means = append(means, avg(w))
		}
	}
	return median(means)
}

// rate returns the values' sum per second over [from, to]: the median over
// the windows of each window's rate when the sample is large enough, the
// whole interval's otherwise (a window holding a dozen events would read
// in steps of a twelfth).
func (s *series) rate(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.v) < statWindows*minPerWindow {
		var sum float64
		for _, v := range s.v {
			sum += v
		}
		return sum / to.Sub(from).Seconds()
	}
	window := to.Sub(from).Seconds() / statWindows
	var rates []float64
	for _, w := range s.windows(from, to) {
		var sum float64
		for _, v := range w {
			sum += v
		}
		rates = append(rates, sum/window)
	}
	return median(rates)
}

// quantile returns the nearest-rank q-quantile of values (which it sorts).
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	i := int(math.Ceil(q*float64(len(values)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(values) {
		i = len(values) - 1
	}
	return values[i]
}

// median returns the median of values (which it sorts).
func median(values []float64) float64 { return quantile(values, 0.5) }

// setupRepeats is how many times each workload sets up from scratch;
// setup_s reports the median. setupBefore of them run before the measured
// phase and the rest after it, so that a slow phase of the machine, which
// can last tens of seconds, moves few of them.
const (
	setupRepeats = 15
	setupBefore  = 7
)

// setupTimer times a workload's set-up: build sets the program up, closeFn
// tears it down.
type setupTimer[T any] struct {
	build   func() (T, error)
	closeFn func(T)
	times   []float64
}

// once times one build after a garbage collection, which keeps the
// previous builds' garbage out of its time.
func (s *setupTimer[T]) once() (T, error) {
	runtime.GC()
	start := time.Now()
	v, err := s.build()
	s.times = append(s.times, time.Since(start).Seconds())
	if err != nil {
		return v, fmt.Errorf("setup: %w", err)
	}
	return v, nil
}

// before runs the setupBefore builds that precede the measured phase,
// closing all but the last, which it returns for the workload to use.
func (s *setupTimer[T]) before() (T, error) {
	var last T
	for i := 0; i < setupBefore; i++ {
		v, err := s.once()
		if err != nil {
			return last, err
		}
		if i < setupBefore-1 {
			s.closeFn(v)
		}
		last = v
	}
	return last, nil
}

// after runs the remaining builds, closing each, and reports setup_s.
func (s *setupTimer[T]) after(r *run) error {
	for len(s.times) < setupRepeats {
		v, err := s.once()
		if err != nil {
			return err
		}
		s.closeFn(v)
	}
	r.report("setup_s", median(s.times), "s", int64(len(s.times)))
	return nil
}
