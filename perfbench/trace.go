package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or visit share
// Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and Dur are in nanoseconds since the recorder started.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// Replay marks a call the benchmark made again, after its parent
	// returned, to time work the parent does internally on a path it cannot
	// instrument. The parent's self time excludes it; the traced wall time
	// and every span open around the replay exclude the replay's run.
	Replay bool `json:"replay,omitempty"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// Safe for concurrent use.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
	// replayTotal is the total run time of replays so far; replaying is set
	// while one runs.
	replayTotal time.Duration
	replaying   bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is an open span.
type active struct {
	rec   *recorder
	id    int64
	start time.Time
	// replayStart is the recorder's replay total when the span opened: a
	// replay that runs while the span is open is not part of its duration.
	replayStart time.Duration
	s           span
}

// begin opens a span under parent (0 for a root). A nil recorder records
// nothing, so one code path serves traced and untraced passes.
func (rec *recorder) begin(name string, parent, req int64) *active {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	rec.nextID++
	id := rec.nextID
	replayed, replaying := rec.replayTotal, rec.replaying
	rec.mu.Unlock()
	return &active{rec: rec, id: id, start: time.Now(), replayStart: replayed,
		s: span{ID: id, Parent: parent, Req: req, Name: name, Replay: replaying}}
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	d := time.Since(a.start)
	a.rec.mu.Lock()
	d -= a.rec.replayTotal - a.replayStart
	a.s.Start = int64(a.start.Sub(a.rec.t0))
	a.s.Dur = int64(d)
	a.rec.spans = append(a.rec.spans, a.s)
	a.rec.mu.Unlock()
	return d
}

// call records fn as a span under parent.
func (rec *recorder) call(name string, parent, req int64, fn func()) {
	a := rec.begin(name, parent, req)
	fn()
	a.end()
}

// spanID returns an open span's ID, 0 for nil.
func (a *active) spanID() int64 {
	if a == nil {
		return 0
	}
	return a.id
}

// replay runs fn, which records replayed calls with call under the spans
// whose work they explain. The replay's run time is excluded from the
// traced wall time and from every span open while it runs; do not nest
// replays. A nil recorder does not run fn.
func (rec *recorder) replay(fn func()) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.replaying = true
	rec.mu.Unlock()
	start := time.Now()
	fn()
	d := time.Since(start)
	rec.mu.Lock()
	rec.replayTotal += d
	rec.replaying = false
	rec.mu.Unlock()
}

// replayed returns the total run time of top-level replays.
func (rec *recorder) replayed() time.Duration {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.replayTotal
}

// layerTime aggregates one span name.
type layerTime struct {
	calls int64
	self  time.Duration
}

// selfTimes computes each span name's call count and self time: a span's
// self time is its duration minus its children's. A replayed child can run
// longer than the work it explains did inside its parent, so one span's
// self time can be negative; it is summed as it is, so that the self times
// of a span's subtree add up to the span's duration.
func (rec *recorder) selfTimes() map[string]*layerTime {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	children := make(map[int64]int64, len(rec.spans))
	for _, s := range rec.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range rec.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.self += time.Duration(s.Dur - children[s.ID])
	}
	return out
}

// write stores the spans as JSON lines.
func (rec *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			rec.mu.Unlock()
			f.Close()
			return err
		}
	}
	rec.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetricSpan names the span behind each per-layer time metric whose
// span name is not the metric name minus its unit suffix.
var layerMetricSpan = map[string]string{
	"availd.evaluate_self_us": "availd.evaluate",
	"availd.grid_self_ms":     "availd.grid",
	"autoscale.tick_self_us":  "autoscale.tick",
}

// reportLayers prints every span name's self time against the traced wall
// time, with the unattributed remainder, and sets each per-layer time
// metric to its span's mean self time per call. Spans named bench.* are the
// benchmark's own loop: their self time is unattributed.
func reportLayers(r *run, rec *recorder, wall time.Duration, cfg config) error {
	times := rec.selfTimes()
	wall -= rec.replayed()
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	var attributed time.Duration
	for _, n := range names {
		lt := times[n]
		if !strings.HasPrefix(n, "bench.") {
			attributed += lt.self
		}
		r.addLine("self "+n, lt.self.Seconds()*1e3, "ms", lt.calls)
	}
	// Self times add up to the root spans' durations, which can overlap a
	// little where the program works concurrently with the client (a sweep
	// job runs while its submit is answered), so the attributed share can
	// exceed 1 slightly; the unattributed remainder is then 0.
	unattributed := wall - attributed
	if unattributed < 0 {
		unattributed = 0
	}
	r.addLine("self (unattributed)", unattributed.Seconds()*1e3, "ms", 1)
	r.addLine("traced wall", wall.Seconds()*1e3, "ms", 1)
	r.addLine("attributed share", attributed.Seconds()/wall.Seconds(), "ratio", 1)
	r.report("bench.unattributed_share", unattributed.Seconds()/wall.Seconds(), "ratio", 1)
	for _, m := range perLayer {
		var scale float64
		switch {
		case strings.HasSuffix(m.name, "_us"):
			scale = 1e6
		case strings.HasSuffix(m.name, "_ms"):
			scale = 1e3
		default:
			continue
		}
		spanName, ok := layerMetricSpan[m.name]
		if !ok {
			spanName = strings.TrimSuffix(strings.TrimSuffix(m.name, "_us"), "_ms")
		}
		if lt := times[spanName]; lt != nil && lt.calls > 0 {
			// Replays that ran longer than the work they explain can leave
			// a layer with a negative total self time; it reads as 0.
			r.setMetric(m.name, max(0, lt.self.Seconds()/float64(lt.calls)*scale), m.unit)
		}
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s.jsonl", cfg.workload))
	return rec.write(path)
}

// reportOverhead reports the traced pass's wall time (without replays) over
// the mean of the untraced passes run before and after it.
func reportOverhead(r *run, traced, untracedBefore, untracedAfter time.Duration) {
	untraced := (untracedBefore + untracedAfter).Seconds() / 2
	r.report("bench.trace_overhead_share", (traced.Seconds()-untraced)/untraced, "ratio", 1)
}
